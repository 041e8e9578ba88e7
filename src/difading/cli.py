"""Experiment orchestration: seeded pack / simulate / analyze pipelines.

Subcommands: pack, simulate, converse-check, near-codeword, scales, sweep.
One parser declares the command and the five flags they share, in any order,
so help is global.  Each reads a flat `key = value` config file (flags
override file values), writes CSV reports plus a human-readable summary that
echoes the resolved configuration to --out (default difading_out), and is
byte-reproducible given the same seed.  Each CSV column
is named once, next to the text written under it: the estimate rows of
simulate and near-codeword join the rule's context (n, A, b, the channel model,
delta) to what the estimators report, and converse-check writes n and b, then
the fields of analysis.SpacingCheck in order.  Each simulate or near-codeword
run makes one estimate_pairs pass over all its tests, on the run seed.  pack
and sweep report the same codebook facts (the sweep_report.csv columns) from
one builder.  scales leaves each dominance certificate, whether it is defined
at the largest n included, to analysis.dominates.  A fading family takes
exactly the keys its FadingSpec constructor reads.

Exit statuses: 0 all checks passed, 1 a pass/fail check failed, 2 config or
usage error (a value outside the interval or choices of its key in SCHEMAS, a
fading law its family refuses, equal messages, a scales grid or pair with no
certificate (a grid of fewer than 4 points included), a slow gain grid (grid
points or discrete atoms) past its memory cap, a simulate default slack
gamma^2 eps_n / 3 that the fading support makes 0 or underflows to 0, packing
radii whose squared distances leave the float range, a simulate decoder
threshold sigma_z2 + delta past the float range, whatever
estimation.near_codeword_rule refuses, a config file that is not UTF-8), 3
parameter precondition violated (a message index outside the loaded codebook,
a malformed codebook, a fast type II noncentrality past the float range, a
near-codeword witness the chi-square oracles refuse), 4 I/O failure.  The
output directory is made by the first artifact written, so a run that exits
2, 3 or 4 before writing leaves none behind.
"""

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from . import analysis
from .channel import FLAVORS, ChannelModel, FadingSpec
from .codec import SCHEDULES, DecoderRule, build_codebook, delta_n, epsilon_schedule
from .codec import load_codebook, packing_radii, save_codebook
from .config import ConfigError, Field, load_config, resolve
from .estimation import (
    MAX_GRID_POINTS,
    NEAR_CODEWORD_MAX_N,
    TrialPlan,
    estimate_pairs,
    near_codeword_experiment,
    near_codeword_rule,
)
from .geometry import MAX_DIMENSION, PackingConfig
from .seeding import derive_seed, substream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

# each fading family: its FadingSpec constructor, then the keys it requires and
# the keys it may take, in argument order
_FAMILIES = {
    "uniform": (FadingSpec.uniform, ("g_min", "g_max"), ()),
    "truncated_rayleigh": (
        FadingSpec.truncated_rayleigh, ("rayleigh_scale", "g_min", "g_max"), ()
    ),
    "discrete": (FadingSpec.discrete, ("values",), ("weights",)),
}

_PACK_N = f"[2, {MAX_DIMENSION}]"
_SEED = "[0, 18446744073709551616)"  # [0, 2^64), as seeding.require_seed checks

_FADING_FIELDS = {
    "family": Field("str", choices=tuple(_FAMILIES)),
    "g_min": Field("float", None, "[0, inf)"),
    "g_max": Field("float", None),
    "rayleigh_scale": Field("float", None, "(0, inf)"),
    "values": Field("floats", None),
    "weights": Field("floats", None, "[0, inf)"),
    "allow_zero": Field("bool", False),
}

SCHEMAS = {
    "pack": {
        "n": Field("int", interval=_PACK_N),
        "power": Field("float", 1.0, "(0, inf)"),
        "b": Field("float", 0.0, "[0, 1)"),
        "schedule": Field("str", "achievability", choices=SCHEDULES),
        "seed": Field("int", 0, _SEED),
        "patience": Field("int", 100_000, "[1, inf)"),
        "max_codewords": Field("int", 100_000, "[1, inf)"),
    },
    "simulate": {
        "codebook": Field("str"),
        "flavor": Field("str", choices=FLAVORS),
        "sigma_z2": Field("float", interval="(0, inf)"),
        "trials": Field("int", 10_000, "[1, inf)"),
        "seed": Field("int", 0, _SEED),
        "message_i": Field("int", None, "[1, inf)"),
        "message_j": Field("int", None, "[1, inf)"),
        "random_pairs": Field("int", None, "[1, inf)"),
        "grid_resolution": Field("int", 33, f"[2, {MAX_GRID_POINTS}]"),
        "delta": Field("float", None, "(0, inf)"),
        **_FADING_FIELDS,
    },
    "converse-check": {
        "codebook": Field("str"),
        "b": Field("float", interval="[0, inf)"),
    },
    "near-codeword": {
        "n": Field("int", interval=f"[2, {NEAR_CODEWORD_MAX_N}]"),
        "power": Field("float", 1.0, "(0, inf)"),
        "b": Field("float", interval="[0, 1)"),
        "sigma_z2": Field("float", interval="(0, inf)"),
        "trials": Field("int", 10_000, "[1, inf)"),
        "seed": Field("int", 0, _SEED),
        "distance": Field("float", None, "(0, inf)"),
        **_FADING_FIELDS,
    },
    "scales": {
        "pairs": Field("strs", None),
        "a": Field("float", 1.0, "(0, inf)"),
        "b": Field("float", 1.0, "(0, inf)"),
        "poly_k": Field("float", 2.0, "[1, inf)"),
        "margin_bits": Field("float", analysis.DEFAULT_MARGIN_BITS),
        "min_exponent": Field("int", 4),
        "max_exponent": Field("int", 128, "[1, 1023]"),
        "step_exponent": Field("int", 4, "[1, inf)"),
    },
    "sweep": {
        "n_values": Field("ints", interval=_PACK_N),
        "power": Field("float", 1.0, "(0, inf)"),
        "b": Field("float", 0.0, "[0, 1)"),
        "schedule": Field("str", "achievability", choices=SCHEDULES),
        "seed": Field("int", 0, _SEED),
        "patience": Field("int", 20_000, "[1, inf)"),
        "max_codewords": Field("int", 2_000, "[1, inf)"),
    },
}


def _fading_from(params: dict) -> FadingSpec:
    family = params["family"]
    make, required, optional = _FAMILIES[family]
    read = ("family", "allow_zero") + required + optional
    missing = [repr(key) for key in required if params[key] is None]
    if missing:
        raise ConfigError(f"{family} fading needs parameters {', '.join(missing)}")
    unread = [repr(key) for key in _FADING_FIELDS if key not in read and params[key] is not None]
    if unread:
        raise ConfigError(f"{family} fading does not read parameters {', '.join(unread)}")
    try:
        return make(*(params[key] for key in required + optional), allow_zero=params["allow_zero"])
    except ValueError as exc:  # a fact of several keys, such as g_min > g_max
        raise ConfigError(f"{family} fading: {exc}") from exc


def _echo_lines(command: str, params: dict) -> list:
    lines = [f"command = {command}"]
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return lines


def _write_text(path: Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)  # made by the first artifact, not before
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    _write_text(path, [",".join(header)] + [",".join(str(cell) for cell in row) for row in rows])


# the simulate and near-codeword CSV columns, in order, each with its text for the
# DecoderRule and one ErrorReport
_ESTIMATE_COLUMNS = (
    ("n", lambda rule, rep: str(rule.codebook.dimension)),
    ("A", lambda rule, rep: repr(rule.codebook.power_budget)),
    ("b", lambda rule, rep: repr(rule.codebook.slack)),
    ("flavor", lambda rule, rep: rule.model.flavor),
    ("family", lambda rule, rep: rule.model.fading.family),
    ("gamma", lambda rule, rep: repr(rule.model.fading.gamma)),
    ("g_max", lambda rule, rep: repr(rule.model.fading.g_max)),
    ("sigma_z2", lambda rule, rep: repr(rule.model.noise_variance)),
    ("delta_n", lambda rule, rep: repr(rule.delta)),
    ("i", lambda rule, rep: str(rep.i)),
    ("j", lambda rule, rep: "" if rep.j is None else str(rep.j)),
    ("trials", lambda rule, rep: str(rep.trials)),
    ("p_hat", lambda rule, rep: repr(rep.estimate)),
    ("stderr", lambda rule, rep: repr(rep.stderr)),
    ("bound", lambda rule, rep: "" if rep.chebyshev_bound is None else repr(rep.chebyshev_bound)),
    ("argmax_g", lambda rule, rep: "" if rep.gain is None else repr(rep.gain)),
)
_ESTIMATE_HEADER = tuple(column for column, _ in _ESTIMATE_COLUMNS)


def _estimate_rows(report, rule: DecoderRule) -> list:
    """_ESTIMATE_COLUMNS rows of one estimate: one per grid point of a worst case, else one."""
    return [tuple(text(rule, rep) for _, text in _ESTIMATE_COLUMNS)
            for rep in report.per_gain or (report,)]


def _bound_verdict(estimate: float, stderr: float, bound) -> str:
    if bound is None:
        return "no-bound"
    if bound > 1.0:
        return "vacuous"
    return "ok" if estimate <= bound + 3.0 * stderr else "VIOLATION"


def _rate_note(value: float) -> str:
    return f"{value!r} (vacuous)" if value < 0 else repr(value)


def _guaranteed_count_line(codebook) -> str:
    if math.sqrt(codebook.power_budget) / math.sqrt(codebook.epsilon_n) <= 2.0:
        return "guaranteed_log2_count = n/a (radius ratio below 2)"
    bound = analysis.codebook_size_log2_bound(
        codebook.dimension, codebook.power_budget, codebook.slack, codebook.schedule
    )
    return f"guaranteed_log2_count = {bound!r}"


def _codebook_with_facts(params, n: int, seed: int, n_key: str):
    """Build the block-length-n codebook; return it with its facts, in sweep CSV column order.

    A geometry that the configuration alone makes degenerate, or whose squared
    distances leave the float range, is refused as a ConfigError naming n_key and
    the schedule's keys before anything is packed.
    """
    eps = epsilon_schedule(n, params["power"], params["b"], params["schedule"])
    try:
        r0, r1 = packing_radii(params["power"], eps)
        PackingConfig(n, r0, r1)
    except ValueError as exc:
        raise ConfigError(f"parameters {n_key!r}, 'power', 'b', 'schedule': {exc}") from exc
    codebook = build_codebook(
        n=n,
        power_budget=params["power"],
        b=params["b"],
        schedule=params["schedule"],
        seed=seed,
        patience=params["patience"],
        max_codewords=params["max_codewords"],
    )
    return codebook, {
        "n": n,
        "epsilon_n": codebook.epsilon_n,
        "r0": r0,
        "r1": r1,
        "count": codebook.size,
        "saturated": codebook.saturated,
        "min_distance": codebook.min_distance,
        "empirical_rate": analysis.empirical_rate(codebook),
        "achievable_rate_lower_bound": analysis.achievable_rate_lower_bound(n, params["b"]),
        "converse_rate_upper_bound": analysis.converse_rate_upper_bound(n, params["b"]),
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_pack(params, out_dir: Path) -> int:
    codebook, facts = _codebook_with_facts(params, params["n"], params["seed"], "n")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_codebook(codebook, out_dir / "codebook.txt")
    del facts["n"]  # echoed with the configuration
    lower = facts.pop("achievable_rate_lower_bound")
    upper = facts.pop("converse_rate_upper_bound")
    lines = _echo_lines("pack", params) + ["---"]
    lines += [f"{key} = {value!r}" for key, value in facts.items()]
    lines += [
        _guaranteed_count_line(codebook),
        f"achievable_rate_lower_bound = {_rate_note(lower)}",
        f"converse_rate_upper_bound = {upper!r}",
        "codebook_file = codebook.txt",
    ]
    _write_text(out_dir / "pack_summary.txt", lines)
    return EXIT_OK


def _select_messages(params, size: int):
    """Message pair policy: explicit i (and optional j), or random ordered pairs."""
    if params["random_pairs"] is not None:
        if params["message_i"] is not None or params["message_j"] is not None:
            raise ConfigError("give either 'random_pairs' or explicit messages, not both")
        if params["random_pairs"] > size * (size - 1):
            raise ValueError(f"random_pairs = {params['random_pairs']} exceeds the "
                             f"{size * (size - 1)} ordered pairs of a {size}-codeword book")
        rng = substream(params["seed"], "pairs")
        pairs = {}  # ordered; a pair drawn again is redrawn
        while len(pairs) < params["random_pairs"]:
            i, j = rng.choice(size, size=2, replace=False) + 1
            pairs[int(i), int(j)] = None
        return list(pairs)
    if params["message_i"] is None:
        raise ConfigError("provide 'message_i' (with optional 'message_j') or 'random_pairs'")
    i = params["message_i"]
    j = params["message_j"]
    if j == i:
        raise ConfigError(f"parameters 'message_i', 'message_j': both are {i}; a pair needs two")
    return [(i, j)]


def _cmd_simulate(params, out_dir: Path) -> int:
    codebook = load_codebook(params["codebook"])
    fading = _fading_from(params)
    model = ChannelModel(
        flavor=params["flavor"], noise_variance=params["sigma_z2"], fading=fading
    )
    if params["delta"] is not None:
        delta = params["delta"]
    else:
        try:
            delta = delta_n(fading.gamma, codebook.epsilon_n)
        except ValueError as exc:  # the support reaches 0 or the slack underflows
            raise ConfigError(f"parameter 'delta': required explicitly here ({exc})") from exc
    try:
        rule = DecoderRule(codebook, model, delta)
    except ValueError as exc:  # a threshold past the float range
        raise ConfigError(f"parameters 'sigma_z2', 'delta': {exc}") from exc
    pairs = _select_messages(params, codebook.size)
    grid = fading.support_grid(params["grid_resolution"]) if model.flavor == "slow" else None
    if grid is not None and len(grid) > MAX_GRID_POINTS:  # a discrete law's grid is its atoms
        raise ConfigError(f"parameter 'values': {len(grid)} atoms exceed the slow gain grid's "
                          f"cap of {MAX_GRID_POINTS} points")

    tests = [(i, tj) for i, j in pairs for tj in ((None,) if j is None else (None, j))]
    plan = TrialPlan(params["trials"], seed=params["seed"])

    rows = []
    verdicts = []
    failed = False
    for report in estimate_pairs(rule, tests, plan, grid):  # per pair: type I, then type II
        rows.extend(_estimate_rows(report, rule))
        verdict = _bound_verdict(report.estimate, report.stderr, report.chebyshev_bound)
        failed = failed or verdict == "VIOLATION"
        messages = f"i={report.i}" + ("" if report.j is None else f" j={report.j}")
        # the type I statistic is ||z||^2 at every gain: no worst gain to report
        extra = "" if report.j is None or report.gain is None else f" argmax_g={report.gain!r}"
        bound_text = "none" if report.chebyshev_bound is None else repr(report.chebyshev_bound)
        verdicts.append(
            f"{report.error_type} {messages}: p_hat={report.estimate!r} stderr={report.stderr!r} "
            f"bound={bound_text} verdict={verdict}{extra}"
        )

    _write_csv(out_dir / "simulate_report.csv", _ESTIMATE_HEADER, rows)
    lines = _echo_lines("simulate", params) + ["---", f"delta = {delta!r}"] + verdicts
    lines.append("report_file = simulate_report.csv")
    _write_text(out_dir / "simulate_summary.txt", lines)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _cmd_converse_check(params, out_dir: Path) -> int:
    codebook = load_codebook(params["codebook"])
    check = analysis.converse_spacing(codebook, params["b"])
    header = ("n", "b") + tuple(field.name for field in dataclasses.fields(check))
    row = (codebook.dimension, repr(params["b"])) + tuple(map(repr, dataclasses.astuple(check)))
    _write_csv(out_dir / "converse_report.csv", header, [row])
    lines = _echo_lines("converse-check", params) + [
        "---",
        f"required_normalized = {check.required_normalized!r}",
        f"achieved_normalized = {check.achieved_normalized!r}",
        f"passes = {check.passes}",
    ]
    _write_text(out_dir / "converse_summary.txt", lines)
    return EXIT_OK if check.passes else EXIT_CHECK_FAILED


def _cmd_near_codeword(params, out_dir: Path) -> int:
    fading = _fading_from(params)
    try:
        rule = near_codeword_rule(params["n"], params["power"], params["b"], params["sigma_z2"],
                                  fading, params["distance"])
    except ValueError as exc:  # the spacing, the power ball, the slack or the threshold
        raise ConfigError(f"parameters 'distance', 'power', 'n', 'b', 'sigma_z2' and "
                          f"{fading.family} fading: {exc}") from exc
    report = near_codeword_experiment(rule, TrialPlan(params["trials"], seed=params["seed"]))
    rows = _estimate_rows(report.type1, report.rule) + _estimate_rows(report.type2, report.rule)
    _write_csv(out_dir / "near_codeword_report.csv", _ESTIMATE_HEADER, rows)
    oracle_text = "none" if report.oracle_sum is None else repr(report.oracle_sum)
    lines = _echo_lines("near-codeword", params) + [
        "---",
        f"alpha_n = {report.alpha_n!r}",
        f"normalized_distance = {report.normalized_distance!r}",
        f"delta = {report.rule.delta!r}",
        f"p1 = {report.type1.estimate!r}",
        f"p2 = {report.type2.estimate!r}",
        f"error_sum = {report.error_sum!r}",
        f"joint_stderr = {report.joint_stderr!r}",
        f"oracle_sum = {oracle_text}",
    ]
    _write_text(out_dir / "near_codeword_summary.txt", lines)
    return EXIT_OK


def _cmd_scales(params, out_dir: Path) -> int:
    exponents = range(params["min_exponent"], params["max_exponent"] + 1, params["step_exponent"])
    if len(exponents) < analysis.MIN_EVIDENCE_POINTS:
        raise ConfigError(f"parameters 'min_exponent', 'max_exponent', 'step_exponent': the grid "
                          f"has {len(exponents)} points, a certificate reads at least "
                          f"{analysis.MIN_EVIDENCE_POINTS}")
    grid = tuple(2**k for k in exponents)
    chain = analysis.scale_chain(params["poly_k"])
    default_mode = params["pairs"] is None
    if default_mode:  # every ordered pair of the chain, with the verdict its order implies
        pair_list = [
            (chain[hi], chain[lo], hi > lo)
            for hi in range(len(chain))
            for lo in range(len(chain))
            if hi != lo
        ]
    else:
        by_kind = {scale.kind: scale for scale in chain}
        pair_list = []
        for item in params["pairs"]:
            if ":" not in item:
                raise ConfigError(
                    f"parameter 'pairs': expected 'dominator:dominated', got {item!r}"
                )
            left, _, right = item.partition(":")
            names = (left.strip(), right.strip())
            for name in names:
                if name not in by_kind:
                    raise ConfigError(f"parameter 'pairs': unknown scale kind {name!r} in "
                                      f"{item!r}; choose from {', '.join(analysis.KINDS)}")
            pair_list.append((by_kind[names[0]], by_kind[names[1]], None))

    rows = []
    evidence = []
    mismatches = 0
    for dominator, dominated, expected in pair_list:
        try:
            result = analysis.dominates(
                dominator,
                dominated,
                a=params["a"],
                b=params["b"],
                n_grid=grid,
                margin_bits=params["margin_bits"],
            )
        except ValueError as exc:  # its message would spell out n, often hundreds of digits
            raise ConfigError(
                f"parameters 'a', 'b', 'max_exponent': pair {dominator.label()}:"
                f"{dominated.label()} has no finite size at n = 2^{exponents[-1]} with rates "
                f"a = {params['a']!r}, b = {params['b']!r}"
            ) from exc
        if expected is not None and result.dominates != expected:
            mismatches += 1
        rows.append(
            (
                dominator.label(),
                dominated.label(),
                repr(params["a"]),
                repr(params["b"]),
                result.domain,
                result.dominates,
                f'"{result.reason}"',
            )
        )
        for n, diff in result.trail:
            evidence.append((dominator.label(), dominated.label(), n, repr(diff)))

    _write_csv(
        out_dir / "scales_report.csv",
        ("dominator", "dominated", "a", "b", "domain", "dominates", "reason"),
        rows,
    )
    _write_csv(
        out_dir / "scales_evidence.csv",
        ("dominator", "dominated", "n", "log2_difference"),
        evidence,
    )
    regime_rows = []
    for flavor in ("fast", "slow"):
        for kind in ("exp", "superexp", "doubleexp"):
            for flag in (False, True):
                verdict = analysis.classify_regime(flavor, kind, flag)
                band = "" if verdict.band is None else f"[{verdict.band[0]};{verdict.band[1]}]"
                regime_rows.append((flavor, kind, flag, verdict.verdict, band))
    _write_csv(
        out_dir / "regimes_report.csv",
        ("flavor", "scale", "zero_in_closure", "verdict", "band_bits"),
        regime_rows,
    )
    lines = _echo_lines("scales", params) + ["---"]
    lines.append(f"pairs_checked = {len(pair_list)}")
    if default_mode:
        lines.append(f"chain_mismatches = {mismatches}")
    lines.append("regime verdicts:")
    lines.extend(
        f"  {flavor} {kind} zero_in_closure={flag}: {verdict}{' ' + band if band else ''}"
        for flavor, kind, flag, verdict, band in regime_rows
    )
    lines.append("report_file = scales_report.csv")
    lines.append("evidence_file = scales_evidence.csv")
    lines.append("regimes_file = regimes_report.csv")
    _write_text(out_dir / "scales_summary.txt", lines)
    return EXIT_CHECK_FAILED if mismatches else EXIT_OK


def _cmd_sweep(params, out_dir: Path) -> int:
    rows = []
    notes = []
    for n in params["n_values"]:
        seed = derive_seed(params["seed"], "sweep", n)
        _, facts = _codebook_with_facts(params, n, seed, "n_values")
        rows.append(facts.values())
        notes.append(
            f"n={n}: count={facts['count']} "
            f"lower_bound={_rate_note(facts['achievable_rate_lower_bound'])} "
            f"upper_bound={facts['converse_rate_upper_bound']!r}"
        )
    _write_csv(out_dir / "sweep_report.csv", tuple(facts), rows)
    lines = _echo_lines("sweep", params) + ["---"] + notes + ["report_file = sweep_report.csv"]
    _write_text(out_dir / "sweep_summary.txt", lines)
    return EXIT_OK


_COMMANDS = {
    "pack": _cmd_pack,
    "simulate": _cmd_simulate,
    "converse-check": _cmd_converse_check,
    "near-codeword": _cmd_near_codeword,
    "scales": _cmd_scales,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difading",
        description="Identification-code experiments over fading Gaussian channels",
    )
    parser.add_argument("command", choices=tuple(_COMMANDS))
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--trials", type=int, default=None, help="override the trial count")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and ignored (must be >= 1); "
        "estimates use one thread per available CPU",
    )
    parser.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    schema = SCHEMAS[args.command]
    try:
        resolve({"threads": Field("int", None, "[1, inf)")}, {}, {"threads": args.threads})
        file_values = load_config(args.config, schema) if args.config else {}
        params = resolve(schema, file_values, {"seed": args.seed, "trials": args.trials})
        out_dir = Path(args.out or "difading_out")
        return _COMMANDS[args.command](params, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, IndexError) as exc:
        print(f"invalid parameter: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
