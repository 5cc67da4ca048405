"""Command-line frontend.

One executable with subcommands; all flags, no environment variables, so
the command line and the files it names determine the output.  With
--output json the result is a single JSON document; identical inputs
produce byte-identical output.

Exit codes: 0 success, 2 input error, 3 size-limit refusal, 4 internal
invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import ALL_CRITERIA, run_all, scorecard
from .bounds import lower_bound, sample_generic_word, universal_word
from .cones import enumerate_disc_vectors, extremal_rays, is_essential
from .engine import DEFAULT_BOUND, conjecture_check, scl
from .errors import InputError, InternalCheckError, LimitExceeded, SclflowError
from .graphs import flow_from_json, flow_to_json, graph_from_json
from .hardness import (
    VARIANTS,
    build_table,
    collapse,
    decide_small_scl,
    essential_gadget_answer,
    instance,
    instance_to_json,
    reduce_ss_to_smallscl,
    small_scl_instance,
    solve_subset,
)
from .linprog import rat_to_json
from .synth import synthesize_extremal
from .words import parse_word, render_word, word_to_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_LIMIT = 3
EXIT_INTERNAL = 4

# the settings a config file may hold; a value must have its default's type
DEFAULTS = {"bound": DEFAULT_BOUND, "stabilize": True, "seed": 0, "output": "text"}


def _load_json(path: str):
    """The JSON document in a file; malformed JSON is an input error."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not valid JSON ({exc})") from exc


def _merge_settings(args) -> None:
    """Set each setting on args: its flag if given, else the config file's
    value, else the default."""
    data = {}
    if getattr(args, "config", None) is not None:
        data = _load_json(args.config)
        if not isinstance(data, dict):
            raise InputError(f"{args.config}: config must be a JSON object")
        unknown = sorted(set(data) - set(DEFAULTS))
        if unknown:
            raise InputError(f"{args.config}: unknown config keys {unknown}; "
                             f"known keys are {sorted(DEFAULTS)}")
        for key, default in DEFAULTS.items():
            # exact type: JSON true/false must not pass for an int
            if key in data and type(data[key]) is not type(default):
                raise InputError(f"{args.config}: {key!r} must be of type "
                                 f"{type(default).__name__}, got {data[key]!r}")
        if data.get("output", "text") not in ("text", "json"):
            raise InputError(f"{args.config}: 'output' must be 'text' or 'json'")
    for key, default in DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, data.get(key, default))


def _parse_values(raw: str) -> list[int]:
    try:
        return [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"bad integer list {raw!r}") from exc


def _spec_from_args(args):
    w = parse_word(args.word)
    return w.x if args.side == "a" else w.y


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (JSON payload, text)
# ---------------------------------------------------------------------------

def cmd_compute(args):
    res = scl(parse_word(args.word), bound=args.bound, stabilize=args.stabilize)
    return (res.to_json(),
            f"scl = {res.value} ({res.status}, bound {res.bound_used})")


def cmd_bounds(args):
    res = scl(parse_word(args.word), bound=args.bound, stabilize=args.stabilize)
    exact = res.lower == res.value
    payload = {"lower": rat_to_json(res.lower), "upper": rat_to_json(res.value),
               "certified_exact": exact, "status": res.status}
    return (payload, f"bracket ({res.lower}, {res.value})"
            + (" -- certified exact" if exact else ""))


def _maybe_scl(args, w, payload: dict, text: str, with_lower: bool = False):
    """A word's payload and text, with its lower bound added if asked and
    its scl added under --compute; the scl result carries the lower bound."""
    res = scl(w, bound=args.bound, stabilize=args.stabilize) if args.compute else None
    if with_lower:
        lo = res.lower if res else lower_bound(w)
        payload["lower"] = rat_to_json(lo)
        text += f"\nlower bound: {lo}"
    if res:
        payload["scl"] = rat_to_json(res.value)
        payload["status"] = res.status
        text += f"\nscl = {res.value} ({res.status})"
    return payload, text


def cmd_universal(args):
    w = universal_word(args.n)
    return _maybe_scl(args, w, {"word": render_word(w), "json": word_to_json(w)},
                      f"word: {render_word(w)}")


def cmd_generic(args):
    w = sample_generic_word(args.n, args.seed)
    return _maybe_scl(args, w, {"word": render_word(w), "json": word_to_json(w)},
                      f"word: {render_word(w)}", with_lower=True)


def cmd_discs(args):
    discs = enumerate_disc_vectors(_spec_from_args(args), args.disc_bound)
    payload = {"count": len(discs), "discs": [flow_to_json(d) for d in discs]}
    return payload, f"{len(discs)} disc vectors at bound {args.disc_bound}"


def cmd_essential(args):
    spec = _spec_from_args(args)
    ess = is_essential(spec, flow_from_json(_load_json(args.disc)))
    return {"essential": ess}, f"essential: {ess}"


def cmd_rays(args):
    rays = extremal_rays(_spec_from_args(args))
    payload = {"count": len(rays), "rays": [flow_to_json(r) for r in rays]}
    return payload, f"{len(rays)} extremal rays"


def cmd_gadget_subset(args):
    inst = instance(args.variant, _parse_values(args.values))
    ans = solve_subset(inst)
    payload = {"instance": instance_to_json(inst), "answer": ans.answer,
               "witness": list(ans.witness) if ans.witness else None}
    return payload, f"answer: {ans.answer} witness: {ans.witness}"


def cmd_gadget_table(args):
    table = build_table(_parse_values(args.values), args.r)
    payload = {"base": list(table.base), "r": table.r, "labels": table.labels(),
               "columns": [list(c) for c in table.columns]}
    return payload, "\n".join(f"{lbl}: {list(col)}" for lbl, col in
                              zip(table.labels(), table.columns))


def cmd_gadget_collapse(args):
    data = _load_json(args.file)
    vectors = data.get("vectors") if isinstance(data, dict) else None
    if not (isinstance(vectors, list) and all(
            isinstance(v, list) and all(type(c) is int for c in v)
            for v in vectors)):
        raise InputError(f"{args.file}: expected {{\"vectors\": "
                         "[[int, ...], ...]}")
    out = collapse(vectors, args.usage_bound)
    return {"collapsed": out}, f"collapsed: {out}"


def cmd_gadget_smallscl(args):
    vals = _parse_values(args.values)
    w = small_scl_instance(vals)
    decision = decide_small_scl(vals)
    # the pre-check's cancelling pair is a proper zero-sum subset; it says
    # nothing of scl unless the promise holds, which it does not test
    key, label = (("zero_sum_subset", "proper zero-sum subset")
                  if decision.route == "precheck"
                  else ("below_threshold", "scl below threshold"))
    payload = {"word": render_word(w), key: decision.answer,
               "route": decision.route, "detail": decision.detail}
    return payload, (f"word: {render_word(w)}\n{label}: "
                     f"{decision.answer} via {decision.route} ({decision.detail})")


def cmd_gadget_reduce(args):
    transcript = reduce_ss_to_smallscl(_parse_values(args.values))
    return transcript.to_json(), (
        f"answer: {transcript.answer}\n" +
        "\n".join(f"r={s.r}: {s.mixed_answer} via {s.route}"
                  for s in transcript.steps))


def cmd_gadget_essential(args):
    ans = essential_gadget_answer(_parse_values(args.values))
    return {"no_zero_subset": ans}, f"no zero-sum subset: {ans}"


def cmd_synth(args):
    result = synthesize_extremal(graph_from_json(_load_json(args.graph)))
    return result.to_json(), (
        f"flow on graph: {list(result.f_vals)} (distinguished edge "
        f"{result.e_star})\nweights: {list(result.weights)}\n"
        f"complete digraph size: {len(result.vertex_weight)}\n"
        f"checks: {result.checks}")


def cmd_conjecture(args):
    report = conjecture_check(args.p, args.q, args.r, bound=args.bound)
    payload = {"predicted": rat_to_json(report.predicted),
               "computed": rat_to_json(report.computed.value),
               "status": report.computed.status,
               "agrees": report.agrees()}
    return payload, (f"predicted {report.predicted}, computed "
                     f"{report.computed.value} [{report.computed.status}] -> "
                     + ("agrees" if report.agrees() else "differs"))


def cmd_verify(args):
    only = None
    if args.only is not None:
        try:
            only = [int(tok) for tok in args.only.split(",")]
        except ValueError as exc:
            raise InputError(f"bad criterion list {args.only!r}") from exc
        if not set(only) <= set(range(1, len(ALL_CRITERIA) + 1)):
            raise InputError(f"criterion ids run from 1 to {len(ALL_CRITERIA)}, "
                             f"got {args.only!r}")
    results = run_all(only=only)
    card = scorecard(results)
    if args.timings:
        # wall times vary run to run, so they stay out of the default output
        for entry, r in zip(card["criteria"], results):
            entry["seconds"] = round(r.seconds, 3)
    lines = [r.line() + (f" [{r.seconds:.2f} s]" if args.timings else "")
             for r in results]
    lines.append("all passed" if card["all_passed"] else "FAILURES PRESENT")
    return card, "\n".join(lines)


# ---------------------------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    # shared flags accepted before or after the subcommand; SUPPRESS keeps
    # a subcommand's unset flags from clobbering values parsed earlier and
    # leaves an unset setting to _merge_settings
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON config file; flags win")
    common.add_argument("--bound", type=int, default=argparse.SUPPRESS,
                        help=f"disc-vector outflow bound (default {DEFAULT_BOUND})")
    common.add_argument("--no-stabilize", action="store_false", dest="stabilize",
                        default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="scl",
        description="Exact stable-commutator-length toolkit for free "
                    "products of free abelian groups",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="scl of a word", parents=[common])
    p.add_argument("word")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("bounds", help="lower/upper bracket of a word", parents=[common])
    p.add_argument("word")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("universal", help="the maximizing word of a given size", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--compute", action="store_true")
    p.set_defaults(fn=cmd_universal)

    p = sub.add_parser("generic", help="sample a generic word", parents=[common])
    p.add_argument("n", type=int)
    p.add_argument("--compute", action="store_true")
    p.set_defaults(fn=cmd_generic)

    p = sub.add_parser("discs", help="disc vectors of a word-side cone", parents=[common])
    p.add_argument("word")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.add_argument("--disc-bound", type=int, default=2)
    p.set_defaults(fn=cmd_discs)

    p = sub.add_parser("essential", help="essentiality of a disc vector", parents=[common])
    p.add_argument("word")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.add_argument("--disc", required=True, help="flow JSON file")
    p.set_defaults(fn=cmd_essential)

    p = sub.add_parser("rays", help="extremal rays of a word-side cone", parents=[common])
    p.add_argument("word")
    p.add_argument("--side", choices=("a", "b"), default="a")
    p.set_defaults(fn=cmd_rays)

    p = sub.add_parser("gadget", help="subset-sum reduction machinery", parents=[common])
    gsub = p.add_subparsers(dest="gadget_cmd", required=True)
    g = gsub.add_parser("subset", parents=[common])
    g.add_argument("--variant", choices=VARIANTS, default="SS")
    g.add_argument("--values", required=True)
    g.set_defaults(fn=cmd_gadget_subset)
    g = gsub.add_parser("table", parents=[common])
    g.add_argument("--values", required=True)
    g.add_argument("--r", type=int, required=True)
    g.set_defaults(fn=cmd_gadget_table)
    g = gsub.add_parser("collapse", parents=[common])
    g.add_argument("--file", required=True, help="instance JSON file")
    g.add_argument("--usage-bound", type=int, required=True)
    g.set_defaults(fn=cmd_gadget_collapse)
    g = gsub.add_parser("smallscl", parents=[common])
    g.add_argument("--values", required=True)
    g.set_defaults(fn=cmd_gadget_smallscl)
    g = gsub.add_parser("reduce", parents=[common])
    g.add_argument("--values", required=True)
    g.set_defaults(fn=cmd_gadget_reduce)
    g = gsub.add_parser("essential", parents=[common])
    g.add_argument("--values", required=True)
    g.set_defaults(fn=cmd_gadget_essential)

    p = sub.add_parser("synth", help="extremal point with a given abstract graph", parents=[common])
    p.add_argument("--graph", required=True, help="graph JSON file")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("conjecture", parents=[common],
                       help="gcd-formula check for one p, q, r")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("r", type=int)
    p.set_defaults(fn=cmd_conjecture)

    p = sub.add_parser("verify", help="run the acceptance scorecard", parents=[common])
    p.add_argument("--only", help="comma-separated criterion ids")
    p.add_argument("--timings", action="store_true",
                   help="add each criterion's wall time in seconds")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every option takes one value, but argparse before Python 3.12 turns
    # a lone "--" value (as in --values=--) into an empty list
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"input error: --{name.replace('_', '-')} needs a value",
                  file=sys.stderr)
            return EXIT_INPUT
    try:
        _merge_settings(args)
        payload, text = args.fn(args)
        if args.output == "json":
            print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
        else:
            print(text)
        # verify's scorecard is the one payload that can report a failure
        return EXIT_OK if payload.get("all_passed", True) else EXIT_INTERNAL
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except InternalCheckError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SclflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
