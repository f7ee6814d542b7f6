"""Scenario runner and chain tooling.

Subcommands:
  run     execute a scenario file, audit the result, emit a report
  import  load an exported chain file and independently re-verify it
  tail    print exact quorum-failure tail probabilities

A scenario file is a JSON object with a required "config" and optional
"checks" and "allow_stall".  The config's keys, the seed among them, and
JSON types are the fields of SimConfig, and each adversary's those of
AdversarySpec (check_scenario); value ranges are checked once, when the
Scenario is built (load_scenario), by its SimConfig.

Reports are a pure function of the scenario file: analysis.audit's
key=value pairs followed by a JSON summary block.  Exit codes: 0 all
enabled checks pass, 1 a check failed or the run stalled when stalling
is not allowed, 2 unusable input (a missing, non-UTF-8 or too deeply
nested file, bad JSON, bad schema, invalid configuration) or an output
that cannot be written.

Start-up stays light: no subcommand loads a schema library.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis
from .adversary import KINDS
from .core import decode_chain, encode_chain
# bound here for the alias that perfbench's tracer wraps; the CLI itself
# digests no header
from .core import block_digest  # noqa: F401
from .netsim import AdversarySpec, SimConfig, SimConfigError, build_context, run

DEFAULT_CHECKS = ("single_chain", "schedule", "conservation", "liveness")


# `tail` sums integers of about n * (bit length of p's denominator) bits,
# at a cost that grows with the square of that size: n = 40,000 at
# p = 1/3 takes about a second (2 vCPU, Python 3.11).  Each printed line
# is one decimal division at `digits` places: 0.22 s and 78 MiB at 10**6.
TAIL_MAX_BITS = 80_000
TAIL_MAX_DIGITS = 1_000


class ScenarioError(ValueError):
    pass


# JSON types by field annotation; an "X | None" field also takes null.
# bool is a subclass of int, so true and false pass only where bool is named
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
               "dict": dict, "list": list, "tuple": list}
_SCENARIO_FIELDS = {"config": "dict", "checks": "list", "allow_stall": "bool"}
_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(SimConfig)}
_ADVERSARY_FIELDS = {f.name: f.type for f in dataclasses.fields(AdversarySpec)}
_ADVERSARY_REQUIRED = [f.name for f in dataclasses.fields(AdversarySpec)
                       if f.default is dataclasses.MISSING]


def _violation(message: str) -> ScenarioError:
    return ScenarioError(f"scenario schema violation: {message}")


def _is_json_type(value, annotation: str) -> bool:
    if value is None:
        return annotation.endswith(" | None")
    kind = _JSON_TYPES[annotation.removesuffix(" | None")]
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _check_object(obj, fields: dict, required, where: str) -> None:
    if not isinstance(obj, dict):
        raise _violation(f"{where} is not an object")
    for key, value in obj.items():
        if key not in fields:
            raise _violation(f"{where} has unknown key {key!r}")
        if not _is_json_type(value, fields[key]):
            raise _violation(f"{where}.{key} {value!r} is not of type {fields[key]}")
    for key in required:
        if key not in obj:
            raise _violation(f"{where} lacks {key!r}")


def check_scenario(doc) -> None:
    """Raise ScenarioError unless doc has the shape of a scenario file.

    An int field takes a JSON integer only, never 16.0 or true.  The only
    ranges checked here are the two the file format fixes:
    0 <= drop_probability < 1 and start_tick >= 0.
    """
    _check_object(doc, _SCENARIO_FIELDS, ["config"], "scenario")
    config = doc["config"]
    _check_object(config, _CONFIG_FIELDS, [], "config")
    # written so that NaN fails too
    if not 0 <= config.get("drop_probability", 0) < 1:
        raise _violation(f"config.drop_probability {config['drop_probability']!r} outside [0, 1)")
    for i, adv in enumerate(config.get("adversaries", [])):
        where = f"config.adversaries[{i}]"
        _check_object(adv, _ADVERSARY_FIELDS, _ADVERSARY_REQUIRED, where)
        if adv["kind"] != "crash" and adv["kind"] not in KINDS:
            raise _violation(f"{where}.kind {adv['kind']!r} is not an adversary kind")
        if adv.get("start_tick", 0) < 0:
            raise _violation(f"{where}.start_tick {adv['start_tick']} is negative")
    for check in doc.get("checks", []):
        if check not in analysis.KNOWN_CHECKS:
            raise _violation(f"checks: {check!r} is not a check")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A checked scenario file: its config, valid since it was built, the
    enabled checks and whether a stall is allowed."""

    config: SimConfig
    checks: tuple
    allow_stall: bool


def scenario_from_doc(doc) -> Scenario:
    """The Scenario of a parsed scenario file; raises ScenarioError for a
    bad shape and SimConfigError for a value out of range."""
    check_scenario(doc)
    fields = dict(doc["config"])
    advs = tuple(AdversarySpec(**a) for a in fields.pop("adversaries", []))
    return Scenario(SimConfig(adversaries=advs, **fields),
                    tuple(doc.get("checks", DEFAULT_CHECKS)), doc.get("allow_stall", False))


def load_scenario(path: str) -> Scenario:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8: {exc}")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}")
    except ValueError as exc:
        # an integer longer than sys.get_int_max_str_digits() allows
        raise ScenarioError(f"scenario file has a number too long to read: {exc}")
    except RecursionError:
        raise ScenarioError("scenario file nests too deeply")
    return scenario_from_doc(doc)


def run_scenario(scenario: Scenario, chain_file=None):
    """Execute one scenario.  Returns (report_text, exit_code), and writes
    the committed chain to chain_file, a binary file, if one is given."""
    transcript = run(scenario.config)
    report = analysis.audit(transcript, scenario.checks)
    fields = report.fields
    passed = all(report.verdicts.values()) and (scenario.allow_stall or not transcript.stalled)
    code = 0 if passed else 1
    lines = [f"{key}={value}" for key, value in fields.items()]
    lines.append(f"stall_allowed={int(scenario.allow_stall)}")
    summary = {
        "checks": report.verdicts,
        "committed_head": fields["committed_head"],
        "config_digest": fields["config_digest"],
        "exit_code": code,
        "stalled": transcript.stalled,
        "transcript_digest": fields["transcript_digest"],
    }
    if chain_file is not None:
        chain_file.write(encode_chain(transcript.chain))
    return "\n".join(lines) + "\n" + json.dumps(summary, sort_keys=True, indent=2) + "\n", code


def import_chain(chain_path: str, scenario: Scenario) -> str:
    """Load an exported chain and re-verify every block against a fresh
    genesis derived from the scenario config.  Returns the message, or
    raises analysis.ChainInvalid / ScenarioError."""
    try:
        data = Path(chain_path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read chain file: {exc}")
    try:
        chain = decode_chain(data)
    except ValueError as exc:
        raise analysis.ChainInvalid(-1, f"undecodable chain file: {exc}")
    head = analysis.verify_chain(chain, build_context(scenario.config))
    return f"verified {len(chain)} blocks up to height {head}"


# `a/b` or a plain decimal: `Fraction` also takes an exponent, and would
# build the power of ten of `1e-100000000` before any bound could look at it
_FRACTION_TEXT = re.compile(r"[+-]?(?:\d+/\d+|\d+\.?\d*|\.\d+)", re.ASCII)


def _parse_fraction(text: str) -> Fraction:
    if not _FRACTION_TEXT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a/b or a plain decimal, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="portchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and report")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--out", default=None, help="directory for report.txt")
    p_run.add_argument("--export-chain", default=None, help="write the committed chain here")

    p_imp = sub.add_parser("import", help="verify an exported chain file")
    p_imp.add_argument("--chain", required=True, help="chain file to verify")
    p_imp.add_argument("--config", required=True, help="scenario JSON the chain was produced from")

    p_tail = sub.add_parser("tail", help="exact quorum-failure tail probability")
    p_tail.add_argument("--n", type=int, required=True)
    p_tail.add_argument("--p", type=_parse_fraction, required=True, help="e.g. 1/3")
    p_tail.add_argument("--m", type=int, required=True)
    p_tail.add_argument("--digits", type=int, default=30)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Python started with fd 1 closed sets sys.stdout to None
        if sys.stdout is None:
            raise OSError("standard output is closed")
        if args.command == "run":
            # a bad scenario exits 2 before any output is touched, and every
            # output is opened before the simulation, so a path that cannot
            # be written exits 2 at once, with nothing on stdout
            scenario = load_scenario(args.config)
            with contextlib.ExitStack() as outputs:
                report_file = chain_file = None
                if args.out is not None:
                    Path(args.out).mkdir(parents=True, exist_ok=True)
                    report_file = outputs.enter_context(open(Path(args.out) / "report.txt", "w"))
                if args.export_chain is not None:
                    chain_file = outputs.enter_context(open(args.export_chain, "wb"))
                report, code = run_scenario(scenario, chain_file)
                if report_file is not None:
                    report_file.write(report)
            sys.stdout.write(report)
            return code
        if args.command == "import":
            print(import_chain(args.chain, load_scenario(args.config)))
            return 0
        bits = args.n * args.p.denominator.bit_length()
        if bits > TAIL_MAX_BITS:
            raise analysis.AnalysisError(
                f"--n {args.n} with --p {args.p} needs {bits} bits, above {TAIL_MAX_BITS}"
            )
        if not 1 <= args.digits <= TAIL_MAX_DIGITS:
            raise analysis.AnalysisError(f"digits {args.digits} outside [1, {TAIL_MAX_DIGITS}]")
        result = analysis.byzantine_tail(args.n, args.p, args.m)
        print(f"n={args.n} m={args.m} p={args.p}")
        print(f"exact_binomial_tail={analysis.render_fraction(result.exact, args.digits)}")
        print(f"coefficient_free_sum={analysis.render_fraction(result.coefficient_free, args.digits)}")
        return 0
    # the exit codes of the module docstring, for every subcommand
    except (ScenarioError, SimConfigError, analysis.AnalysisError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except analysis.ChainInvalid as exc:
        print(f"invalid chain: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
