"""Command line harness.

Subcommands: lemmas (property suites), audit (separator audits), search
(partition searches), build (blocked staircase / bramble construction),
treewidth (exact solver).  Exit codes: 0 success, 1 property violation,
2 usage error, 3 inconclusive run.

Outputs are byte-deterministic for a fixed configuration and seed; wall
clock timings are only included when --timings is passed.
"""

import argparse
import json
import sys
import time

from . import harness
from .bramble_builder import (
    BlockedStaircase,
    BuilderSizeError,
    class_bramble_order,
    find_blocked_or_bramble,
    grid_side,
    schedule,
)
from .decomposition import SizeGuardError, check_guard, exact_treewidth
from .graphs import relabel
from .grid import (
    build_qn,
    grid_from_json,
    read_grid_document,
    triangulated_grid,
)
from .separators import (
    HashPartition,
    NoSeparatorError,
    is_blocked,
    partition_from_json,
)


def _usage_error(exc):
    print(str(exc), file=sys.stderr)
    return 2


def _emit(args, text):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows, header):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


def cmd_lemmas(args):
    if args.n < 1:
        return _usage_error("grid side must be positive")
    if args.samples < 0:
        return _usage_error("samples must be non-negative")
    rows = harness.run_suites(
        n=args.n,
        exhaustive=args.exhaustive,
        samples=args.samples,
        seed=args.seed or 0,
    )
    header = ["suite", "instances", "violations"]
    table = [[r["suite"], r["instances"], r["violations"]] for r in rows]
    if args.format == "json":
        _emit(args, json.dumps(rows, sort_keys=True) + "\n")
    else:
        _emit(args, _csv(table, header))
    return 1 if any(r["violations"] for r in rows) else 0


def cmd_audit(args):
    if args.n < 1:
        return _usage_error("grid side must be positive")
    if args.separator == "plane":
        if args.samples is not None or args.seed is not None:
            return _usage_error(
                "--samples and --seed apply only to sampled audits"
            )
    elif args.samples is None or args.samples < 1:
        return _usage_error("sampled audits need --samples at least 1")
    if args.certify_width is not None and args.certify_width < 0:
        return _usage_error("--certify-width must be non-negative")
    try:
        reports = harness.audit_rows(
            n=args.n,
            samples=args.samples or 0,
            separator=args.separator,
            seed=args.seed or 0,
            replay=args.replay,
            certify_width=args.certify_width,
        )
    except NoSeparatorError as exc:
        return _usage_error(exc)
    header = ["n", "x_size", "lambda_doubled", "bound_milli",
              "tw_certified", "pass"]
    table = []
    failed = False
    for rep in reports:
        if rep is None:
            table.append([args.n, 0, 0, "", "", "1"])
            continue
        table.append(rep.csv_row())
        if not rep.passes:
            failed = True
        if args.certify_width is not None and (
            rep.tw_certified is None or rep.tw_certified < args.certify_width
        ):
            failed = True
    if args.format == "json":
        payload = [
            (rep.to_json_obj() if rep is not None else
             {"n": args.n, "degenerate": True, "pass": True})
            for rep in reports
        ]
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    else:
        _emit(args, _csv(table, header))
    return 1 if failed else 0


def cmd_search(args):
    if args.exhaustive and (args.samples is not None or args.seed is not None):
        return _usage_error(
            "--samples and --seed apply only to sampled searches"
        )
    try:
        if args.exhaustive:
            result = harness.exhaustive_partition_search(args.n)
        else:
            result = harness.sampled_partition_search(
                args.n,
                100 if args.samples is None else args.samples,
                args.seed or 0,
            )
    except ValueError as exc:
        return _usage_error(exc)
    if args.format == "csv":
        value = result.get(
            "min_max_class_treewidth", result.get("best_max_class_treewidth")
        )
        table = [[result["mode"], result["n"], value,
                  result["classes_evaluated"]]]
        _emit(args, _csv(table, ["mode", "n", "value", "classes"]))
    else:
        _emit(args, json.dumps(result, sort_keys=True) + "\n")
    return 0


def cmd_build(args):
    if args.partition_file and (args.seed is not None
                                or args.bias is not None):
        return _usage_error(
            "--seed and --bias apply only to hashed partitions"
        )
    t, b, seed = args.t, args.b, args.seed or 0
    bias = 128 if args.bias is None else args.bias
    try:
        sched = schedule(t, b)
        need = grid_side(t, b)
        part = HashPartition(seed, bias=bias)
    except ValueError as exc:
        return _usage_error(exc)
    n = args.n if args.n is not None else need
    g = None
    if args.partition_file:
        try:
            with open(args.partition_file) as fh:
                g, part = partition_from_json(fh.read())
        except ValueError as exc:
            return _usage_error(exc)
        if args.n is not None and g.n != args.n:
            return _usage_error("partition grid size disagrees with --n")
        n = g.n  # the file fixes the grid side
    if n < 1:
        return _usage_error("grid side must be positive")
    if n < need and not args.allow_undersized:
        return _usage_error(
            f"grid side {n} below requirement {need} "
            f"(schedule {sched}); pass --allow-undersized to experiment")
    if g is None:
        g = build_qn(n)
    config = {"t": t, "b": b, "n": n, "seed": seed, "bias": bias,
              "color": args.color}
    started = time.perf_counter()
    try:
        result = find_blocked_or_bramble(g, part, t, b, args.color)
    except BuilderSizeError as exc:
        payload = {
            "config": config,
            "outcome": "inconclusive",
            "reason": str(exc),
            "guaranteed": n >= need,
        }
        _emit(args, json.dumps(payload, sort_keys=True) + "\n")
        return 3
    evidence = result.to_json_obj()
    # Independent re-verification, never trusting builder state.
    if isinstance(result, BlockedStaircase):
        verified = is_blocked(g, result.staircase, result.b, result.color, part)
    else:
        order = class_bramble_order(g, part, result, t)
        verified = order is not None and order == result.order
        evidence["reverified_order"] = order
    payload = {
        "config": config,
        "outcome": evidence["kind"],
        "evidence": evidence,
        "verified": bool(verified),
        "guaranteed": n >= need,
    }
    if args.timings:
        payload["elapsed_s"] = round(time.perf_counter() - started, 3)
    _emit(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0 if verified else 1


def cmd_treewidth(args):
    # Graphs are solved on int labels: a document on its vertex ids, the
    # others on positions in vertices(), which are the vertex ids for Q_n.
    # The guard is checked before any graph is built, on the vertex count
    # each source declares.
    try:
        if args.input is not None:
            with open(args.input) as fh:
                text = fh.read()
            n, listed, _ = read_grid_document(text)
            check_guard(n ** 3 if listed == "full" else len(listed))
            g = grid_from_json(text)
        else:
            side, dim, build = (
                (args.grid, 3, build_qn) if args.grid is not None
                else (args.tri_grid, 2, triangulated_grid)
            )
            if side < 1:
                raise ValueError("grid side must be positive")
            check_guard(side ** dim)
            g = build(side)
    except (ValueError, SizeGuardError) as exc:
        return _usage_error(exc)
    if args.input is None:
        g = relabel(g, {v: i for i, v in enumerate(g.vertices())}.get)
    started = time.perf_counter()
    width, td = exact_treewidth(g)
    if args.decomposition_out:
        with open(args.decomposition_out, "w") as fh:
            fh.write(td.to_lines())
    text = f"treewidth {width}\n"
    if args.timings:
        text += f"elapsed_s {round(time.perf_counter() - started, 3)}\n"
    _emit(args, text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gridtw",
        description="Treewidth certificates on the diagonal 3D grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flags; each subcommand takes only the ones it reads.  --seed
    # defaults to None so that a mode that reads no seed can refuse an
    # explicit one; the modes that read it resolve None to 0.
    shared = {
        "--seed": dict(type=int, default=None),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--timings": dict(action="store_true"),
    }

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("lemmas", help="run the calculus/separation suites")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=1000)
    common(p, "--seed", "--format")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("audit", help="audit separators of the grid slab")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--separator", choices=("sampled", "plane"),
                   default="sampled")
    p.add_argument("--certify-width", type=int, default=None)
    p.add_argument("--replay", action="store_true")
    common(p, "--seed", "--format")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("search", help="partition searches")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=None,
                   help="sampled partitions (default 100)")
    common(p, "--seed", "--format")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("build", help="blocked staircase / bramble builder")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--color", type=int, choices=(1, 2), default=1)
    p.add_argument("--bias", type=int, default=None,
                   help="class-1 weight out of 256 for random partitions "
                   "(default 128)")
    p.add_argument("--partition-file", type=str, default=None)
    p.add_argument("--allow-undersized", action="store_true")
    common(p, "--seed", "--timings")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("treewidth", help="exact treewidth of a graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=str, default=None,
                        help="grid graph JSON file")
    source.add_argument("--grid", type=int, default=None)
    source.add_argument("--tri-grid", type=int, default=None)
    p.add_argument("--decomposition-out", type=str, default=None)
    common(p, "--timings")
    p.set_defaults(func=cmd_treewidth)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # A file that cannot be read or written is a usage error, not a
    # property violation.  --out is opened before the work, so that an
    # unwritable path fails at once rather than after the whole run.
    try:
        if args.out:
            open(args.out, "a").close()
        return args.func(args)
    except OSError as exc:
        return _usage_error(exc)


if __name__ == "__main__":
    sys.exit(main())
