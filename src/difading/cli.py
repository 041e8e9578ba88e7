"""Experiment orchestration: seeded pack / simulate / analyze pipelines.

Subcommands: pack, simulate, converse-check, near-codeword, scales, sweep.
Each reads a flat `key = value` config file (flags override file values),
writes CSV reports plus a human-readable summary that echoes the resolved
configuration, and is byte-reproducible given the same seed.  Every CSV
layout lives here: the estimate rows of simulate and near-codeword join the
run's context (n, A, b, the channel model, delta) to what the estimators
report.

Exit statuses: 0 all checks passed, 1 a pass/fail check failed, 2 config or
usage error, 3 parameter precondition violated, 4 I/O failure.
"""

import argparse
import math
import os
import sys
from pathlib import Path

from . import analysis
from .channel import ChannelModel, FadingSpec
from .codec import build_codebook, delta_n, load_codebook, save_codebook
from .config import ConfigError, Field, load_config, resolve
from .estimation import (
    TrialPlan,
    estimate_type1,
    estimate_type2,
    estimate_worst_case,
    near_codeword_experiment,
)
from .seeding import derive_seed, substream

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_IO = 4

OUT_ENV = "DIFADING_OUT"

_FADING_FIELDS = {
    "family": Field("str"),
    "g_min": Field("float", None),
    "g_max": Field("float", None),
    "rayleigh_scale": Field("float", None),
    "values": Field("floats", None),
    "weights": Field("floats", None),
    "allow_zero": Field("bool", False),
}

SCHEMAS = {
    "pack": {
        "n": Field("int"),
        "power": Field("float", 1.0),
        "b": Field("float", 0.0),
        "schedule": Field("str", "achievability"),
        "seed": Field("int", 0),
        "patience": Field("int", 100_000),
        "max_codewords": Field("int", 100_000),
    },
    "simulate": {
        "codebook": Field("str"),
        "flavor": Field("str"),
        "sigma_z2": Field("float"),
        "trials": Field("int", 10_000),
        "seed": Field("int", 0),
        "message_i": Field("int", None),
        "message_j": Field("int", None),
        "random_pairs": Field("int", None),
        "grid_resolution": Field("int", 33),
        "delta": Field("float", None),
        **_FADING_FIELDS,
    },
    "converse-check": {
        "codebook": Field("str"),
        "b": Field("float"),
    },
    "near-codeword": {
        "n": Field("int"),
        "power": Field("float", 1.0),
        "b": Field("float"),
        "sigma_z2": Field("float"),
        "trials": Field("int", 10_000),
        "seed": Field("int", 0),
        "distance": Field("float", None),
        **_FADING_FIELDS,
    },
    "scales": {
        "pairs": Field("strs", None),
        "a": Field("float", 1.0),
        "b": Field("float", 1.0),
        "poly_k": Field("float", 2.0),
        "margin_bits": Field("float", analysis.DEFAULT_MARGIN_BITS),
        "min_exponent": Field("int", 4),
        "max_exponent": Field("int", 128),
        "step_exponent": Field("int", 4),
    },
    "sweep": {
        "n_values": Field("ints"),
        "power": Field("float", 1.0),
        "b": Field("float", 0.0),
        "schedule": Field("str", "achievability"),
        "seed": Field("int", 0),
        "patience": Field("int", 20_000),
        "max_codewords": Field("int", 2_000),
    },
}


def _fading_from(params: dict) -> FadingSpec:
    family = params["family"]
    allow_zero = params["allow_zero"]
    if family == "uniform":
        if params["g_min"] is None or params["g_max"] is None:
            raise ConfigError("uniform fading needs parameters 'g_min' and 'g_max'")
        return FadingSpec.uniform(params["g_min"], params["g_max"], allow_zero=allow_zero)
    if family == "truncated_rayleigh":
        if params["rayleigh_scale"] is None or params["g_min"] is None or params["g_max"] is None:
            raise ConfigError(
                "truncated_rayleigh fading needs 'rayleigh_scale', 'g_min' and 'g_max'"
            )
        return FadingSpec.truncated_rayleigh(
            params["rayleigh_scale"], params["g_min"], params["g_max"], allow_zero=allow_zero
        )
    if family == "discrete":
        if params["values"] is None:
            raise ConfigError("discrete fading needs parameter 'values'")
        return FadingSpec.discrete(params["values"], params["weights"], allow_zero=allow_zero)
    raise ConfigError(f"parameter 'family': unknown fading family {family!r}")


def _echo_lines(command: str, params: dict) -> list:
    lines = [f"command = {command}"]
    for key in sorted(params):
        value = params[key]
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return lines


def _write_text(path: Path, lines) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: Path, header, rows) -> None:
    out = [",".join(header)]
    out.extend(",".join(str(cell) for cell in row) for row in rows)
    path.write_text("\n".join(out) + "\n", encoding="utf-8")


_ESTIMATE_HEADER = (
    "n",
    "A",
    "b",
    "flavor",
    "family",
    "gamma",
    "g_max",
    "sigma_z2",
    "delta_n",
    "i",
    "j",
    "trials",
    "p_hat",
    "stderr",
    "bound",
    "argmax_g",
)


def _estimate_rows(report, n: int, power_budget: float, b: float, model, delta: float) -> list:
    """_ESTIMATE_HEADER rows of one estimate: one per grid point of a worst case, else one."""
    fading = model.fading
    context = (str(n), repr(power_budget), repr(b), model.flavor, fading.family,
               repr(fading.gamma), repr(fading.g_max), repr(model.noise_variance), repr(delta))
    return [
        context + (
            str(rep.i),
            "" if rep.j is None else str(rep.j),
            str(rep.trials),
            repr(rep.estimate),
            repr(rep.stderr),
            "" if rep.chebyshev_bound is None else repr(rep.chebyshev_bound),
            "" if rep.gain is None else repr(rep.gain),
        )
        for rep in report.per_gain or (report,)
    ]


def _bound_verdict(estimate: float, stderr: float, bound) -> str:
    if bound is None:
        return "no-bound"
    if bound > 1.0:
        return "vacuous"
    return "ok" if estimate <= bound + 3.0 * stderr else "VIOLATION"


def _rate_note(value: float) -> str:
    return f"{value!r} (vacuous)" if value < 0 else repr(value)


def _guaranteed_count_line(codebook, root_a: float, eps: float) -> str:
    if root_a / math.sqrt(eps) <= 2.0:
        return "guaranteed_log2_count = n/a (radius ratio below 2)"
    bound = analysis.codebook_size_log2_bound(
        codebook.dimension, codebook.power_budget, codebook.slack
    )
    return f"guaranteed_log2_count = {bound!r}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_pack(params, out_dir: Path) -> int:
    codebook = build_codebook(
        n=params["n"],
        power_budget=params["power"],
        b=params["b"],
        schedule=params["schedule"],
        seed=params["seed"],
        patience=params["patience"],
        max_codewords=params["max_codewords"],
    )
    save_codebook(codebook, out_dir / "codebook.txt")
    eps = codebook.epsilon_n
    root_a = math.sqrt(codebook.power_budget)
    lines = _echo_lines("pack", params)
    lines += [
        "---",
        f"epsilon_n = {eps!r}",
        f"r0 = {math.sqrt(eps)!r}",
        f"r1 = {root_a - math.sqrt(eps)!r}",
        f"count = {codebook.size}",
        f"saturated = {codebook.saturated}",
        f"min_distance = {codebook.min_distance!r}",
        f"empirical_rate = {analysis.empirical_rate(codebook)!r}",
        _guaranteed_count_line(codebook, root_a, eps),
        f"achievable_rate_lower_bound = {_rate_note(analysis.achievable_rate_lower_bound(params['n'], params['b']))}",
        f"converse_rate_upper_bound = {analysis.converse_rate_upper_bound(params['n'], params['b'])!r}",
        "codebook_file = codebook.txt",
    ]
    _write_text(out_dir / "pack_summary.txt", lines)
    return EXIT_OK


def _select_messages(params, size: int):
    """Message pair policy: explicit i (and optional j), or random ordered pairs."""
    if params["random_pairs"] is not None:
        if params["message_i"] is not None or params["message_j"] is not None:
            raise ConfigError("give either 'random_pairs' or explicit messages, not both")
        if params["random_pairs"] < 1:
            raise ConfigError(
                f"parameter 'random_pairs': must be >= 1, got {params['random_pairs']}"
            )
        if size < 2:
            raise ValueError("random pairs need a codebook with at least 2 codewords")
        rng = substream(params["seed"], "pairs")
        pairs = []
        for _ in range(params["random_pairs"]):
            i, j = rng.choice(size, size=2, replace=False) + 1
            pairs.append((int(i), int(j)))
        return pairs
    if params["message_i"] is None:
        raise ConfigError("provide 'message_i' (with optional 'message_j') or 'random_pairs'")
    i = params["message_i"]
    j = params["message_j"]
    return [(i, j)]


def _cmd_simulate(params, out_dir: Path) -> int:
    codebook = load_codebook(params["codebook"])
    fading = _fading_from(params)
    model = ChannelModel(
        flavor=params["flavor"], noise_variance=params["sigma_z2"], fading=fading
    )
    if params["delta"] is not None:
        delta = params["delta"]
    elif fading.gamma > 0:
        delta = delta_n(fading.gamma, codebook.epsilon_n)
    else:
        raise ConfigError(
            "parameter 'delta': required explicitly when the fading support reaches 0"
        )
    pairs = _select_messages(params, codebook.size)
    grid = fading.support_grid(params["grid_resolution"]) if model.flavor == "slow" else None

    rows = []
    verdicts = []
    failed = False
    row_index = 0
    for i, j in pairs:
        for tj in (None,) if j is None else (None, j):  # type I, then type II
            plan = TrialPlan(
                trials=params["trials"], seed=derive_seed(params["seed"], "row", row_index)
            )
            row_index += 1
            if model.flavor == "slow":
                report = estimate_worst_case(codebook, model, i, tj, delta, grid, plan)
            elif tj is None:
                report = estimate_type1(codebook, model, i, delta, plan)
            else:
                report = estimate_type2(codebook, model, i, tj, delta, plan)
            rows.extend(_estimate_rows(report, codebook.dimension, codebook.power_budget,
                                       codebook.slack, model, delta))
            verdict = _bound_verdict(report.estimate, report.stderr, report.chebyshev_bound)
            failed = failed or verdict == "VIOLATION"
            label = f"{report.error_type} i={i}" + ("" if tj is None else f" j={tj}")
            # the type I statistic is ||z||^2 at every gain: no worst gain to report
            extra = "" if tj is None or report.gain is None else f" argmax_g={report.gain!r}"
            bound_text = (
                "none" if report.chebyshev_bound is None else repr(report.chebyshev_bound)
            )
            verdicts.append(
                f"{label}: p_hat={report.estimate!r} stderr={report.stderr!r} "
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
    header = (
        "n",
        "b",
        "required_normalized",
        "required_unnormalized",
        "achieved_normalized",
        "achieved_unnormalized",
        "passes",
    )
    row = (
        codebook.dimension,
        repr(params["b"]),
        repr(check.required_normalized),
        repr(check.required_unnormalized),
        repr(check.achieved_normalized),
        repr(check.achieved_unnormalized),
        check.passes,
    )
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
    plan = TrialPlan(trials=params["trials"], seed=params["seed"])
    report = near_codeword_experiment(
        n=params["n"],
        power_budget=params["power"],
        b=params["b"],
        noise_variance=params["sigma_z2"],
        fading=fading,
        plan=plan,
        normalized_distance=params["distance"],
    )
    model = ChannelModel(flavor="fast", noise_variance=params["sigma_z2"], fading=fading)
    context = (params["n"], params["power"], params["b"], model, report.delta)
    rows = _estimate_rows(report.type1, *context) + _estimate_rows(report.type2, *context)
    _write_csv(out_dir / "near_codeword_report.csv", _ESTIMATE_HEADER, rows)
    oracle_text = "none" if report.oracle_sum is None else repr(report.oracle_sum)
    lines = _echo_lines("near-codeword", params) + [
        "---",
        f"alpha_n = {report.alpha_n!r}",
        f"normalized_distance = {report.normalized_distance!r}",
        f"delta = {report.delta!r}",
        f"p1 = {report.type1.estimate!r}",
        f"p2 = {report.type2.estimate!r}",
        f"error_sum = {report.error_sum!r}",
        f"joint_stderr = {report.joint_stderr!r}",
        f"oracle_sum = {oracle_text}",
    ]
    _write_text(out_dir / "near_codeword_summary.txt", lines)
    return EXIT_OK


def _scale_by_name(name: str, poly_k: float) -> analysis.ScaleFn:
    if name == "poly":
        return analysis.ScaleFn("poly", k=poly_k)
    return analysis.ScaleFn(name)


def _cmd_scales(params, out_dir: Path) -> int:
    if params["step_exponent"] < 1 or params["min_exponent"] > params["max_exponent"]:
        raise ConfigError("parameters 'min_exponent', 'max_exponent', 'step_exponent': the grid "
                          "needs min_exponent <= max_exponent and step_exponent >= 1")
    exponents = range(params["min_exponent"], params["max_exponent"] + 1, params["step_exponent"])
    grid = tuple(2**k for k in exponents)
    chain = analysis.scale_chain(params["poly_k"])
    default_mode = params["pairs"] is None
    if default_mode:
        pair_list = [
            (chain[hi], chain[lo])
            for hi in range(len(chain))
            for lo in range(len(chain))
            if hi != lo
        ]
    else:
        pair_list = []
        for item in params["pairs"]:
            if ":" not in item:
                raise ConfigError(
                    f"parameter 'pairs': expected 'dominator:dominated', got {item!r}"
                )
            left, _, right = item.partition(":")
            pair_list.append(
                (_scale_by_name(left.strip(), params["poly_k"]),
                 _scale_by_name(right.strip(), params["poly_k"]))
            )

    for pair in pair_list:  # a pair certifies nothing unless its sizes are finite at the largest n
        evaluate = (analysis.loglog2_scale if "doubleexp" in (pair[0].kind, pair[1].kind)
                    else analysis.log2_scale)
        for scale, rate in zip(pair, (params["a"], params["b"])):
            try:
                if rate > 0:  # other rates are left to analysis.dominates (exit 3)
                    evaluate(scale, grid[-1], rate)
            except ValueError as exc:
                raise ConfigError(f"parameter 'max_exponent': the {scale.label()} scale at rate "
                                  f"{rate!r} has no finite size at n = 2^{exponents[-1]}") from exc
    order = {scale.kind: pos for pos, scale in enumerate(chain)}
    rows = []
    evidence = []
    mismatches = 0
    for dominator, dominated in pair_list:
        result = analysis.dominates(
            dominator,
            dominated,
            a=params["a"],
            b=params["b"],
            n_grid=grid,
            margin_bits=params["margin_bits"],
        )
        expected = order[dominator.kind] > order[dominated.kind]
        if default_mode and result.dominates != expected:
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
    header = (
        "n",
        "epsilon_n",
        "r0",
        "r1",
        "count",
        "saturated",
        "min_distance",
        "empirical_rate",
        "achievable_rate_lower_bound",
        "converse_rate_upper_bound",
    )
    if not params["n_values"]:
        raise ConfigError("parameter 'n_values': needs at least one block length")
    rows = []
    notes = []
    for n in params["n_values"]:
        codebook = build_codebook(
            n=n,
            power_budget=params["power"],
            b=params["b"],
            schedule=params["schedule"],
            seed=derive_seed(params["seed"], "sweep", n),
            patience=params["patience"],
            max_codewords=params["max_codewords"],
        )
        eps = codebook.epsilon_n
        lower = analysis.achievable_rate_lower_bound(n, params["b"])
        upper = analysis.converse_rate_upper_bound(n, params["b"])
        rows.append(
            (
                n,
                repr(eps),
                repr(math.sqrt(eps)),
                repr(math.sqrt(codebook.power_budget) - math.sqrt(eps)),
                codebook.size,
                codebook.saturated,
                repr(codebook.min_distance),
                repr(analysis.empirical_rate(codebook)),
                repr(lower),
                repr(upper),
            )
        )
        notes.append(
            f"n={n}: count={codebook.size} lower_bound={_rate_note(lower)} upper_bound={upper!r}"
        )
    _write_csv(out_dir / "sweep_report.csv", header, rows)
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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None, help="flat key=value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
        cmd.add_argument("--trials", type=int, default=None, help="override the trial count")
        cmd.add_argument(
            "--threads",
            type=int,
            default=None,
            help="accepted for compatibility and ignored (must be >= 1); "
            "estimates use one thread per available CPU",
        )
        cmd.add_argument("--out", type=str, default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    schema = SCHEMAS[args.command]
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"parameter 'threads': must be >= 1, got {args.threads}")
        file_values = load_config(args.config, schema) if args.config else {}
        params = resolve(schema, file_values, {"seed": args.seed, "trials": args.trials})
        out_dir = Path(args.out or os.environ.get(OUT_ENV, "difading_out"))
        out_dir.mkdir(parents=True, exist_ok=True)
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
