"""Command-line front-end.

Subcommands::

    pdb validate SPEC
    pdb expected-size SPEC
    pdb prob --instance FILE SPEC
    pdb query --epsilon E --query FILE SPEC
    pdb sample --n N --delta D --seed S SPEC
    pdb complete BASE TAIL [--c C] -o OUT
    pdb oracle-compare SPEC --query FILE

Every spec kind loads into one space type, independent blocks of
disjoint fact-set outcomes, then a tail (``independence.BIDPdb``): a
``ti`` space has singleton blocks, a ``finite`` table is one block of its
worlds, and a ``completion`` is that block beside its fresh facts' blocks.
Only ``validate``'s line names the kind.  ``query`` keeps the head blocks
whole, treats each tail fact up to the certified truncation as a
singleton block, and walks the worlds block by block.  ``oracle-compare``
needs a space without a tail.

Exit codes: 0 ok, 1 usage, 2 validation, 3 capability: the enumeration
caps, and ``NestingTooDeep`` for spec JSON or a query nested past the
interpreter's recursion limit.
The environment variable ``PDB_WORLD_CAP`` (ASCII decimal digits) sets
the world-enumeration cap used by ``query``; any other value is a usage
error.

``main(argv)`` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it, and each call reads the
environment and the standard streams afresh.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys

from . import approx, completion as completion_mod, fo, oracle
from .core import FiniteDiscretePDB
from .errors import NestingTooDeep, PdbError, ValidationError, WorldCapExceeded
from .numerics import ProbabilityInterval
from .specio import SpecDocument, instance_lines, load_instance, load_spec, save_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CAPABILITY = 3
WORLD_CAP_ENV = "PDB_WORLD_CAP"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def world_cap() -> int:
    """``PDB_WORLD_CAP`` if set (ValueError unless a decimal numeral of
    ASCII digits), else the library's default."""
    raw = os.environ.get(WORLD_CAP_ENV)
    if not raw:
        return approx.DEFAULT_WORLD_CAP
    if raw.isascii() and raw.isdigit():
        return int(raw)
    raise ValueError(f"{WORLD_CAP_ENV} must be a nonnegative integer, got {raw!r}")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _report_error(exc: Exception) -> int:
    if isinstance(exc, WorldCapExceeded):
        print(f"WorldCapExceeded: {exc} (required n = {exc.required})", file=sys.stderr)
        return EXIT_CAPABILITY
    print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_CAPABILITY if isinstance(exc, NestingTooDeep) else EXIT_VALIDATION


_VALIDATE_LINE = {
    **dict.fromkeys(("ti", "bid"), lambda doc, s: (
        f"{doc.kind.upper()}, total mass {s.total_mass:.3f}, convergent, expected size {s.expected_size:.3f}"
    )),
    "finite": lambda doc, s: f"finite, {len(doc.worlds)} worlds, expected size {s.expected_size:.3f}",
    "completion": lambda doc, s: (
        f"completion, {len(doc.worlds)} base worlds, "
        f"tail mass {completion_mod.fresh_mass(s):.3f}, convergent, "
        f"expected size {s.expected_size:.3f}"
    ),
}


def cmd_validate(args) -> int:
    doc = load_spec(args.spec)
    print(_VALIDATE_LINE[doc.kind](doc, doc.space()))
    return EXIT_OK


def cmd_expected_size(args) -> int:
    print(repr(load_spec(args.spec).space().expected_size))
    return EXIT_OK


def _print_interval(p: ProbabilityInterval) -> None:
    if p.is_point:
        print(f"probability = {p.lo!r}")
    else:
        print(f"probability in [{p.lo!r}, {p.hi!r}]")


def cmd_prob(args) -> int:
    doc = load_spec(args.spec)
    d = load_instance(args.instance, doc.schema, doc.universe)
    _print_interval(doc.space().instance_prob(d))
    return EXIT_OK


def cmd_query(args) -> int:
    if not (0.0 < args.epsilon < 0.5):
        return _usage_error(f"--epsilon must lie in (0, 1/2), got {args.epsilon}")
    try:
        cap = world_cap()
    except ValueError as exc:
        return _usage_error(str(exc))
    doc = load_spec(args.spec)
    t = doc.space()
    with open(args.query, "r", encoding="utf-8") as fh:
        text = fh.read()
    formula = fo.parse(text, doc.schema)
    free = fo.free_variables(formula)
    try:
        answer = (approx.approx_nonboolean if free else approx.approx_boolean)(
            t, formula, args.epsilon, doc.universe, cap=cap
        )
    except WorldCapExceeded as exc:  # the environment sets this cap, in bits of the walk's worlds, not n
        print(f"WorldCapExceeded: {exc}; set {WORLD_CAP_ENV} to raise it (required cap = {exc.required})",
              file=sys.stderr)
        return EXIT_CAPABILITY
    if not free:
        p, cert = answer
        print(f"probability = {p:.6f} (additive error <= {args.epsilon})")
        print(
            f"certificate: n={cert.n} alpha={cert.alpha_n!r} "
            f"tail_sum={cert.tail_sum!r} epsilon={cert.epsilon!r}"
        )
    else:
        for combo, p in answer.items():
            print(f"({', '.join(map(repr, combo))})\t{p:.6f}")
        fresh = any(isinstance(e, fo.Fresh) for combo in answer for e in combo)
        print(
            f"note: each value carries additive error <= {args.epsilon}; "
            + ("*1, *2, ... stand for distinct elements that occur in no row without a *; " if fresh else "")
            + f"any tuple not listed has probability <= {args.epsilon}"
        )
    return EXIT_OK


def cmd_sample(args) -> int:
    if args.n < 0:
        return _usage_error(f"--n must be >= 0, got {args.n}")
    if not (0.0 < args.delta < 1.0):
        return _usage_error(f"--delta must lie in (0, 1), got {args.delta}")
    space = load_spec(args.spec).space()
    rng = random.Random(args.seed)
    for line in instance_lines(space.sample(rng, args.delta) for _ in range(args.n)):
        print(line)
    return EXIT_OK


def _base_to_finite(doc: SpecDocument) -> FiniteDiscretePDB:
    """A completion base: either an explicit worlds table or a head-only TI
    spec expanded into its (closed) finite world table."""
    if doc.kind == "finite":
        return doc.finite()
    if doc.kind == "ti":
        return completion_mod.head_worlds(doc.ti(), doc.schema, doc.universe)
    raise ValidationError(f"completion base must be finite or ti, got {doc.kind!r}")


def cmd_complete(args) -> int:
    base_doc = load_spec(args.base)
    tail_doc = load_spec(args.tail)
    if tail_doc.kind != "ti":
        raise ValidationError(f"tail spec must have kind 'ti', got {tail_doc.kind!r}")
    if tail_doc.schema != base_doc.schema or tail_doc.universe != base_doc.universe:
        raise ValidationError("base and tail must share schema and universe")
    base = _base_to_finite(base_doc)
    if args.c is not None:
        base = completion_mod.closure_extend(base, args.c)
    assignment = tail_doc.assignment()
    completion_mod.complete(base, assignment)  # refuses an open base and overlapping facts
    out_doc = SpecDocument(
        kind="completion",
        schema=base_doc.schema,
        universe=base_doc.universe,
        head=assignment.head,
        tail=assignment.tail,
        worlds=tuple((d, base.probability(d)) for d in base.instances()),
    )
    save_spec(out_doc, args.output)
    print(f"wrote completion spec to {args.output}")
    return EXIT_OK


def cmd_oracle_compare(args) -> int:
    doc = load_spec(args.spec)
    space = doc.space()
    if space.tail is not None:
        raise ValidationError("oracle comparison needs a head-only spec (no tail)")
    with open(args.query, "r", encoding="utf-8") as fh:
        formula = fo.parse(fh.read(), doc.schema)
    if fo.free_variables(formula):
        raise ValidationError("oracle comparison takes a Boolean query")
    blocks = list(space.blocks.values())
    worlds = oracle.enumerate_block_worlds(blocks)
    facts = list(dict.fromkeys(g for block in blocks for outcome, _ in block for g in outcome))
    diffs = []
    for f in facts:
        atom = fo.Atom(f.relation, tuple(map(fo.Const, f.args)))
        engine_marginal = approx.world_walk(blocks, atom, doc.universe)
        oracle_marginal = oracle.exact_event_prob(worlds, lambda d: f in d)
        diffs.append(abs(engine_marginal - oracle_marginal))
        print(f"marginal {f}: engine={engine_marginal!r} oracle={oracle_marginal!r}")
    engine_q = approx.world_walk(blocks, formula, doc.universe)
    bind = fo.compile_sentence(formula)
    oracle_q = oracle.exact_event_prob(
        worlds, lambda d: fo.eval_boolean(d, formula, doc.universe, compiled=bind(d.tuples_of))
    )
    diffs.append(abs(engine_q - oracle_q))
    print(f"query: engine={engine_q!r} oracle={oracle_q!r}")
    print(f"max abs difference = {max(diffs)!r}")
    if max(diffs) > 1e-9:
        print("MISMATCH: engine and oracle disagree beyond 1e-9", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``pdb`` parser, built once per process and shared by every call."""
    parser = _Parser(
        prog="pdb", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a spec and report its mass")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("expected-size", help="expected number of facts per instance")
    p.add_argument("spec")
    p.set_defaults(func=cmd_expected_size)

    p = sub.add_parser("prob", help="probability of one instance")
    p.add_argument("spec")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_prob)

    p = sub.add_parser("query", help="additive-error query probability")
    p.add_argument("spec")
    p.add_argument("--query", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("sample", help="draw instances")
    p.add_argument("spec")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("complete", help="open-world completion of a base spec")
    p.add_argument("base")
    p.add_argument("tail")
    p.add_argument("--c", type=float, default=None, help="closure-extension constant in (0, 1]")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("oracle-compare", help="engine vs brute-force oracle")
    p.add_argument("spec")
    p.add_argument("--query", required=True)
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PdbError, OSError, ValueError) as exc:
        return _report_error(exc)
    except RecursionError:  # reading converts its own; what is left is a walk over a query
        return _report_error(NestingTooDeep("query or its world walk nests too deeply to evaluate"))


if __name__ == "__main__":
    raise SystemExit(main())
