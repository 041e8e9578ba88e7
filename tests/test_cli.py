import hashlib
import io
import math
import tempfile
import warnings
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difading import ChannelModel, DecoderRule, FadingSpec, TrialPlan, cli, seeding
from difading import estimate_type1, estimate_worst_case, two_codeword_codebook


def run(args):
    return cli.main(args)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def pack_dir(tmp_path):
    cfg = write(tmp_path / "pack.cfg", "n = 100\nseed = 42\npatience = 4000\nmax_codewords = 48\n")
    out = tmp_path / "pack"
    assert run(["pack", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    return out


# sha256 of pack_summary.txt for the pack_dir configuration, recorded before
# pack and sweep shared one codebook builder
_PINNED_PACK_SUMMARY = "664c54b97b4fb7856b505d599480476b371f0f0d5cc115adbc7fa6ceec3db98e"


def test_pack_writes_codebook_and_summary(pack_dir):
    codebook = (pack_dir / "codebook.txt").read_text()
    assert codebook.startswith("format = difading-codebook-v1")
    summary = (pack_dir / "pack_summary.txt").read_text()
    assert "command = pack" in summary
    assert "count = 48" in summary
    assert "epsilon_n" in summary
    digest = hashlib.sha256((pack_dir / "pack_summary.txt").read_bytes()).hexdigest()
    assert digest == _PINNED_PACK_SUMMARY


def test_pack_count_bound_follows_the_schedule(tmp_path):
    # the bound was evaluated at the achievability radii whatever the schedule,
    # which printed -45.63 for this converse-spacing geometry
    cfg = write(
        tmp_path / "p.cfg",
        "n = 40\nb = 0.3\nschedule = converse_spacing\npatience = 200\nmax_codewords = 20\n",
    )
    out = tmp_path / "pack"
    assert run(["pack", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "pack_summary.txt").read_text().splitlines()
    bound = float(next(line for line in lines if line.startswith("guaranteed_log2_count")).split()[-1])
    # r1/r0 = 40^1.3 - 1, so the bound is 40 * (log2(40^1.3 - 1) - 1)
    assert bound == pytest.approx(40 * (math.log2(40**1.3 - 1.0) - 1.0), rel=1e-12)
    assert bound == pytest.approx(236.26, abs=0.01)


def test_pack_is_byte_deterministic(tmp_path):
    cfg = write(tmp_path / "p.cfg", "n = 64\nseed = 7\npatience = 2000\nmax_codewords = 32\n")
    for name in ("a", "b"):
        assert run(["pack", "--config", cfg, "--out", str(tmp_path / name)]) == cli.EXIT_OK
    assert run(["pack", "--config", cfg, "--seed", "8", "--out", str(tmp_path / "c")]) == cli.EXIT_OK
    a = (tmp_path / "a" / "codebook.txt").read_bytes()
    b = (tmp_path / "b" / "codebook.txt").read_bytes()
    c = (tmp_path / "c" / "codebook.txt").read_bytes()
    assert a == b
    assert a != c


def test_simulate_fast_rows_and_summary(pack_dir, tmp_path):
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {pack_dir / 'codebook.txt'}
flavor = fast
family = uniform
g_min = 0.5
g_max = 1.5
sigma_z2 = 0.05
trials = 2000
seed = 3
message_i = 1
message_j = 2
""",
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "simulate_report.csv").read_text().splitlines()
    assert lines[0] == ",".join(
        ("n", "A", "b", "flavor", "family", "gamma", "g_max", "sigma_z2", "delta_n",
         "i", "j", "trials", "p_hat", "stderr", "bound", "argmax_g")
    )
    assert len(lines) == 3  # header + type1 row + type2 row
    summary = (out / "simulate_summary.txt").read_text()
    assert "type1 i=1" in summary and "type2 i=1 j=2" in summary


def test_simulate_slow_emits_one_row_per_grid_point(pack_dir, tmp_path):
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {pack_dir / 'codebook.txt'}
flavor = slow
family = uniform
g_min = 0.5
g_max = 1.5
sigma_z2 = 0.05
trials = 500
seed = 3
message_i = 1
message_j = 2
grid_resolution = 7
""",
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "simulate_report.csv").read_text().splitlines()
    assert len(lines) == 1 + 7 * 2  # header + grid rows for type1 and type2
    assert all(line.split(",")[-1] for line in lines[1:])  # every CSV row keeps its gain
    verdicts = (out / "simulate_summary.txt").read_text().splitlines()
    type1 = next(line for line in verdicts if line.startswith("type1 i=1:"))
    type2 = next(line for line in verdicts if line.startswith("type2 i=1 j=2:"))
    assert "argmax_g" not in type1  # the type I rate does not depend on the gain
    assert "argmax_g=" in type2


def test_simulate_is_byte_deterministic(pack_dir, tmp_path):
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {pack_dir / 'codebook.txt'}
flavor = fast
family = uniform
g_min = 0.5
g_max = 1.5
sigma_z2 = 0.05
trials = 1000
seed = 11
random_pairs = 2
""",
    )
    for name in ("s1", "s2"):
        assert run(["simulate", "--config", cfg, "--out", str(tmp_path / name)]) == cli.EXIT_OK
    assert run(
        ["simulate", "--config", cfg, "--seed", "12", "--out", str(tmp_path / "s3")]
    ) == cli.EXIT_OK
    r1 = (tmp_path / "s1" / "simulate_report.csv").read_bytes()
    r2 = (tmp_path / "s2" / "simulate_report.csv").read_bytes()
    r3 = (tmp_path / "s3" / "simulate_report.csv").read_bytes()
    assert r1 == r2
    assert r1 != r3


# sha256 of simulate_report.csv for the configuration below, recorded when the
# estimator began drawing the decoder statistic from its chi-square law
_PINNED_REPORTS = {
    "fast": "78d3b4813ba0aaeca8c14eff93a2e8982f989751d45a01970f9965ce472a97d1",
    "slow": "daf1b7491c8533e4859afc7681123bbd9880080a6766b32fb41e9f6019e73f75",
}


@pytest.mark.parametrize("flavor", ["fast", "slow"])
def test_simulate_report_is_pinned_for_every_thread_count(
    pack_dir, tmp_path, flavor, monkeypatch
):
    # 9000 trials span three chunks (4096 + 4096 + 808); the pool size must not
    # change a byte
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {pack_dir / 'codebook.txt'}
flavor = {flavor}
family = uniform
g_min = 0.2
g_max = 0.4
sigma_z2 = 1.0
trials = 9000
seed = 5
random_pairs = 2
grid_resolution = 5
""",
    )
    reports = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(seeding, "_WORKERS", workers)
        out = tmp_path / f"workers{workers}"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        reports.append((out / "simulate_report.csv").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert hashlib.sha256(reports[0]).hexdigest() == _PINNED_REPORTS[flavor]


def test_report_fields_and_csv_shape():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    model = ChannelModel("fast", 1.0, FadingSpec.uniform(0.5, 1.5))
    rule = DecoderRule(cb, model, 0.1)
    report = estimate_type1(rule, 1, TrialPlan(2_000, seed=11))
    assert 0.0 <= report.estimate <= 1.0
    assert report.stderr == pytest.approx(
        math.sqrt(report.estimate * (1 - report.estimate) / report.trials), rel=1e-12
    )
    rows = cli._estimate_rows(report, rule)
    assert len(rows) == 1
    assert len(rows[0]) == len(cli._ESTIMATE_HEADER)


def test_worst_case_csv_expands_per_gain():
    cb = two_codeword_codebook(8, 1.0, 0.0, distance=0.5)
    slow = ChannelModel("slow", 1.0, FadingSpec.uniform(0.5, 1.5))
    rule = DecoderRule(cb, slow, 0.1)
    worst = estimate_worst_case(rule, 1, 2, [0.5, 1.0, 1.5], TrialPlan(1_000, seed=12))
    rows = cli._estimate_rows(worst, rule)
    assert len(rows) == 3
    assert [row[-1] for row in rows] == ["0.5", "1.0", "1.5"]


def test_simulate_trials_override(pack_dir, tmp_path):
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {pack_dir / 'codebook.txt'}
flavor = fast
family = uniform
g_min = 1.0
g_max = 1.0
sigma_z2 = 1.0
trials = 100
seed = 1
message_i = 1
""",
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--trials", "300", "--out", str(out)]) == cli.EXIT_OK
    row = (out / "simulate_report.csv").read_text().splitlines()[1].split(",")
    assert row[11] == "300"


_NO_SEED_OR_TRIALS = {
    "pack": "n = 16\nseed = 1\npatience = 200\nmax_codewords = 4\n",
    "converse-check": "codebook = {codebook}\nb = 0.0\n",
    "scales": "",
    "sweep": "n_values = 8\nseed = 1\npatience = 200\nmax_codewords = 4\n",
}


@pytest.mark.parametrize(
    "command, flags",
    [
        ("pack", ["--trials", "5"]),
        ("converse-check", ["--trials", "5", "--seed", "3"]),
        ("converse-check", ["--seed", "3"]),
        ("scales", ["--trials", "7"]),
        ("scales", ["--seed", "7"]),
        ("sweep", ["--trials", "5"]),
    ],
)
def test_override_without_a_matching_parameter_is_a_config_error(
    pack_dir, tmp_path, capsys, command, flags
):
    text = _NO_SEED_OR_TRIALS[command].format(codebook=pack_dir / "codebook.txt")
    cfg = write(tmp_path / "c.cfg", text)
    assert run([command, "--config", cfg, "--out", str(tmp_path / "ok")]) == cli.EXIT_OK
    out = tmp_path / "refused"
    assert run([command, "--config", cfg, *flags, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "unknown override parameter" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_is_a_config_error(tmp_path):
    cfg = write(tmp_path / "p.cfg", "n = 16\nseeed = 3\n")
    assert run(["pack", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_missing_required_key_is_a_config_error(tmp_path):
    cfg = write(tmp_path / "p.cfg", "seed = 3\n")
    assert run(["pack", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_bad_value_type_is_a_config_error(tmp_path):
    cfg = write(tmp_path / "p.cfg", "n = sixteen\n")
    assert run(["pack", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_bytes(b"n = 16\n\xff\n")
    out = tmp_path / "o"
    assert run(["pack", "--config", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG
    assert str(cfg) in capsys.readouterr().err
    assert not out.exists()


def test_unknown_subcommand_is_a_usage_error():
    assert run(["transmogrify"]) == cli.EXIT_CONFIG


def test_threads_below_one_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["scales", "--threads", "0", "--out", str(out)]) == cli.EXIT_CONFIG
    assert "parameter 'threads'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", [0, -3])
def test_simulate_without_pairs_is_a_config_error(pack_dir, tmp_path, capsys, count):
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {pack_dir / 'codebook.txt'}
flavor = fast
family = uniform
g_min = 0.5
g_max = 1.5
sigma_z2 = 0.05
trials = 100
random_pairs = {count}
""",
    )
    out = tmp_path / "o"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "parameter 'random_pairs'" in capsys.readouterr().err
    assert not (out / "simulate_report.csv").exists()


_UNIFORM = "family = uniform\ng_min = 0.5\ng_max = 1.5\n"


@pytest.mark.parametrize(
    "command, fading, message",
    [
        ("simulate", _UNIFORM + "values = 7, 8\n", "does not read parameters 'values'"),
        ("simulate", _UNIFORM + "rayleigh_scale = 3\n",
         "does not read parameters 'rayleigh_scale'"),
        ("simulate", _UNIFORM + "weights = 1, 2\n", "does not read parameters 'weights'"),
        ("near-codeword", "family = discrete\nvalues = 0.5, 1.0\ng_min = 0.2\n",
         "does not read parameters 'g_min'"),
        ("simulate", "family = uniform\ng_min = 0.5\n", "needs parameters 'g_max'"),
        ("near-codeword", "family = truncated_rayleigh\ng_min = 0.5\ng_max = 1.5\n",
         "needs parameters 'rayleigh_scale'"),
    ],
    ids=["uniform-values", "uniform-rayleigh-scale", "uniform-weights", "discrete-g-min",
         "uniform-no-g-max", "rayleigh-no-scale"],
)
def test_fading_key_the_family_does_not_read_or_lacks_is_a_config_error(
    pack_dir, tmp_path, capsys, command, fading, message
):
    # the unread keys were silently dropped (exit 0)
    if command == "simulate":
        head = (f"codebook = {pack_dir / 'codebook.txt'}\nflavor = fast\nsigma_z2 = 0.05\n"
                "trials = 100\nmessage_i = 1\nmessage_j = 2\n")
    else:
        head = "n = 16\nb = 0.1\nsigma_z2 = 1.0\ntrials = 100\n"
    cfg = write(tmp_path / "run.cfg", head + fading)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flavor, resolution", [("fast", -5), ("slow", 1), ("slow", 0)])
def test_grid_resolution_below_two_is_a_config_error(pack_dir, tmp_path, capsys, flavor,
                                                     resolution):
    # fast fading ignored the value (exit 0); slow fading failed in support_grid (exit 3)
    cfg = write(
        tmp_path / "sim.cfg",
        f"codebook = {pack_dir / 'codebook.txt'}\nflavor = {flavor}\n{_UNIFORM}"
        f"sigma_z2 = 0.05\ntrials = 100\nmessage_i = 1\ngrid_resolution = {resolution}\n",
    )
    out = tmp_path / "o"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "parameter 'grid_resolution'" in capsys.readouterr().err
    assert not out.exists()


def _config(base, change):
    """base with each 'key = value' line of change in place of base's line for that key."""
    keys = {line.partition("=")[0].strip() for line in change.splitlines()}
    kept = [line for line in base.splitlines() if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept + change.splitlines()) + "\n"


_PACK = "n = 8\nseed = 1\npatience = 200\nmax_codewords = 4\n"
_SWEEP = "n_values = 8\nseed = 1\npatience = 200\nmax_codewords = 4\n"
_SIM_NO_PAIR = "flavor = fast\nsigma_z2 = 0.05\ntrials = 100\n"
_SIM_RUN = _SIM_NO_PAIR + "message_i = 1\nmessage_j = 2\n"
_NEAR_RUN = "n = 16\nb = 0.1\nsigma_z2 = 1.0\ntrials = 100\n"
_RAYLEIGH = "family = truncated_rayleigh\nrayleigh_scale = 1\ng_min = 0.5\ng_max = 1.5\n"
_DISCRETE = "family = discrete\nvalues = 0.5, 1.0\n"
_REFUSED = [
    ("pack", _PACK, "n = 0", "'n'"),
    ("pack", _PACK, "n = 1", "'n'"),
    ("pack", _PACK, "n = 100000000", "'n'"),  # refused before anything is allocated
    ("pack", _PACK, "power = -1", "'power'"),
    ("pack", _PACK, "b = 5", "'b'"),
    ("pack", _PACK, "schedule = bogus", "'schedule'"),
    ("pack", _PACK, "patience = 0", "'patience'"),
    ("pack", _PACK, "max_codewords = 0", "'max_codewords'"),
    ("simulate", _SIM_RUN + _UNIFORM, "sigma_z2 = 0", "'sigma_z2'"),
    ("simulate", _SIM_RUN + _UNIFORM, "flavor = medium", "'flavor'"),
    ("simulate", _SIM_RUN + _UNIFORM, "trials = 0", "'trials'"),
    ("simulate", _SIM_RUN + _UNIFORM, "delta = -1", "'delta'"),
    ("simulate", _SIM_RUN + _UNIFORM, "g_min = -1", "'g_min'"),
    ("simulate", _SIM_RUN + _RAYLEIGH, "rayleigh_scale = 0", "'rayleigh_scale'"),
    ("simulate", _SIM_RUN + _DISCRETE, "weights = -1, 2", "'weights'"),
    ("simulate", _SIM_RUN + _UNIFORM, "message_j = 1", "'message_j'"),
    ("simulate", _SIM_RUN + _UNIFORM, "random_pairs = 2", "'random_pairs'"),
    ("simulate", _SIM_NO_PAIR + _UNIFORM, "# neither message_i nor random_pairs", "'message_i'"),
    ("simulate", _SIM_RUN + _UNIFORM, "flavor = slow\ng_min = 0.0\nallow_zero = true", "'delta'"),
    ("simulate", _SIM_RUN + _UNIFORM, "g_min = 2", "uniform fading"),
    ("simulate", _SIM_RUN + _DISCRETE, "weights = 1", "discrete fading"),
    ("simulate", _SIM_RUN + _DISCRETE, "weights = 0, 0", "discrete fading"),
    ("simulate", _SIM_RUN + _RAYLEIGH, "g_min = 50\ng_max = 60", "truncated_rayleigh fading"),
    # fading laws whose moments leave the float range (these exited 1 with an OverflowError)
    ("simulate", _SIM_RUN + _RAYLEIGH, "rayleigh_scale = 1e-300", "truncated_rayleigh fading"),
    ("simulate", _SIM_RUN + _UNIFORM, "g_max = 1e200", "uniform fading"),
    ("simulate", _SIM_RUN + _DISCRETE, "values = 1e200", "discrete fading"),
    # the slack gamma^2 eps_n / 3 underflows to 0 (these exited 3)
    ("simulate", _SIM_RUN + _DISCRETE, "values = 1e-200", "'delta'"),
    ("simulate", _SIM_RUN + _UNIFORM, "flavor = slow\ng_min = 1e-200", "'delta'"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "n = 1", "'n'"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "b = 2", "'b'"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "power = 0", "'power'"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "sigma_z2 = 0", "'sigma_z2'"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "distance = -1", "'distance'"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "distance = 100", "'distance', 'power'"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "trials = 0", "'trials'"),
    # no delta key can stand in for the slack gamma^2 eps_n / 3 (these exited 3)
    ("near-codeword", _NEAR_RUN + _UNIFORM, "g_min = 0.0\nallow_zero = true", "uniform fading"),
    ("near-codeword", _NEAR_RUN + _DISCRETE, "values = 0.0, 1.0\nallow_zero = true",
     "discrete fading"),
    ("near-codeword", _NEAR_RUN + _RAYLEIGH, "rayleigh_scale = 1e-300", "truncated_rayleigh fading"),
    ("near-codeword", _NEAR_RUN + _UNIFORM, "g_max = 1e200", "uniform fading"),
    ("near-codeword", _NEAR_RUN + _DISCRETE, "values = 1e200", "discrete fading"),
    ("near-codeword", _NEAR_RUN + _DISCRETE, "values = 1e-200", "discrete fading"),
    ("sweep", _SWEEP, "n_values = 1, 8", "'n_values'"),
    ("sweep", _SWEEP, "n_values = 8, 100000000", "'n_values'"),
    ("sweep", _SWEEP, "b = 1", "'b'"),
]


@pytest.mark.parametrize(
    "command, base, change, named",
    _REFUSED,
    ids=[f"{command}: {change}".replace("\n", "; ") for command, _, change, _ in _REFUSED],
)
def test_bad_value_is_a_config_error_naming_its_key(pack_dir, tmp_path, capsys, command, base,
                                                    change, named):
    # each exited 3 ("invalid parameter"); the oversized n ran out of memory
    if command == "simulate":
        base = f"codebook = {pack_dir / 'codebook.txt'}\n" + base
    cfg = write(tmp_path / "run.cfg", _config(base, change))
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def tiny_codebook(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    cfg = write(out / "pack.cfg", "n = 100\npatience = 200\nmax_codewords = 3\n")
    assert run(["pack", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    return out / "codebook.txt"


# every run stays tiny: in-range values sit at the low end of each interval
_FUZZ_BASE = {
    "pack": "n = 2\npatience = 50\nmax_codewords = 3\n",
    "simulate": "codebook = {codebook}\n" + _SIM_RUN.replace("100", "20") + _UNIFORM,
    "converse-check": "codebook = {codebook}\nb = 0.1\n",
    "near-codeword": _NEAR_RUN.replace("100", "20") + _UNIFORM,
    "scales": "max_exponent = 24\n",
    "sweep": "n_values = 2, 3\npatience = 50\nmax_codewords = 3\n",
}
_WRONG_TYPE = {"int": "1.5", "float": "x", "bool": "maybe", "ints": "2, x", "floats": "1, x"}


def _in_range(draw, field):
    """Text of an allowed value, at the low end of an interval (None: keep the base's line)."""
    if field.choices:
        return draw(st.sampled_from(field.choices))
    if field.type == "bool":
        return draw(st.sampled_from(("true", "false")))
    if field.interval is None:
        return None if "str" in field.type else str(draw(st.integers(-3, 8)))
    low = float(field.interval[1:-1].split(",")[0])
    low += 0.0 if field.interval[0] == "[" else 0.5
    return str(int(low)) if "int" in field.type else str(low)


def _out_of_range(draw, field):
    """Text of an unknown choice, or of a value just past one end of the interval."""
    if field.choices:
        return "bogus"
    low, high = (float(end) for end in field.interval[1:-1].split(","))
    if math.isinf(high) or draw(st.booleans()):
        value = low - (field.interval[0] == "[")
    else:
        value = high + (field.interval[-1] == "]")
    return str(int(value)) if "int" in field.type else str(value)


@st.composite
def _fuzz_config(draw):
    """(command, {key: value text}, the key the refusal must name or None)."""
    command = draw(st.sampled_from(sorted(cli.SCHEMAS)))
    schema = cli.SCHEMAS[command]
    bad = draw(st.sets(st.sampled_from(sorted(schema)), max_size=2))
    changes = {}
    out_key = type_key = None
    for key, field in schema.items():
        if key in bad and field.type in _WRONG_TYPE and draw(st.booleans()):
            changes[key] = _WRONG_TYPE[field.type]
            type_key = type_key or key
        elif key in bad and (field.interval or field.choices):
            changes[key] = _out_of_range(draw, field)
            out_key = out_key or key
        elif draw(st.integers(0, 15 if field.default is None else 3)) == 0:  # keep most unset
            value = _in_range(draw, field)
            if value is not None:
                changes[key] = value
    return command, changes, type_key or out_key


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fuzz_config())
def test_cli_fuzz_exits_with_a_documented_status(tiny_codebook, case):
    command, changes, named = case
    base = _FUZZ_BASE[command].format(codebook=tiny_codebook)
    change = "".join(f"{key} = {value}\n" for key, value in changes.items())
    with tempfile.TemporaryDirectory() as work:
        cfg = write(Path(work) / "run.cfg", _config(base, change))
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr):
            warnings.simplefilter("always")
            code = run([command, "--config", cfg, "--out", str(Path(work) / "o")])
    assert not caught
    assert isinstance(code, int) and 0 <= code <= 4
    if named is not None:
        assert code == cli.EXIT_CONFIG
        assert f"'{named}'" in stderr.getvalue()


def test_sweep_without_block_lengths_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "sw.cfg", "n_values =\n")
    out = tmp_path / "o"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    assert "parameter 'n_values'" in capsys.readouterr().err
    assert not (out / "sweep_report.csv").exists()


def test_precondition_violation_maps_to_exit_3(pack_dir, tmp_path):
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {pack_dir / 'codebook.txt'}
flavor = fast
family = uniform
g_min = 0.5
g_max = 1.5
sigma_z2 = 0.05
trials = 100
seed = 1
message_i = 9999
""",
    )
    out = tmp_path / "o"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not out.exists()
    # a random pair needs two codewords: a book of the first codeword alone has one
    lines = (pack_dir / "codebook.txt").read_text().splitlines()
    one = _with_header("\n".join(lines[: lines.index("centers:") + 2]), "count", "1")
    cfg = write(tmp_path / "pairs.cfg", f"codebook = {write(tmp_path / 'one.txt', one)}\n"
                + _SIM_NO_PAIR + _UNIFORM + "random_pairs = 1\n")
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not out.exists()


def test_missing_codebook_file_maps_to_exit_4(tmp_path):
    cfg = write(
        tmp_path / "sim.cfg",
        f"""codebook = {tmp_path / 'nowhere.txt'}
flavor = fast
family = uniform
g_min = 0.5
g_max = 1.5
sigma_z2 = 0.05
trials = 100
seed = 1
message_i = 1
""",
    )
    out = tmp_path / "o"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_IO
    assert not out.exists()


def test_converse_check_pass_and_exit_codes(pack_dir, tmp_path):
    cfg = write(tmp_path / "cc.cfg", f"codebook = {pack_dir / 'codebook.txt'}\nb = 0.1\n")
    out = tmp_path / "cc"
    assert run(["converse-check", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert "passes = True" in (out / "converse_summary.txt").read_text()


def test_converse_check_rejects_nan_codeword(pack_dir, tmp_path):
    lines = (pack_dir / "codebook.txt").read_text().splitlines()
    body = lines.index("centers:") + 1
    lines[body] = " ".join(["nan"] + lines[body].split()[1:])
    book = write(tmp_path / "nan_codebook.txt", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "cc.cfg", f"codebook = {book}\nb = 0.1\n")
    out = tmp_path / "cc"
    assert run(["converse-check", "--config", cfg, "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert not (out / "converse_summary.txt").exists()


@pytest.mark.parametrize(
    "key, new",
    [
        ("seed", "{line}\nseed = 7"),
        ("count", "{line}\ncolour = blue"),
        ("saturated", "saturated = maybe"),
        ("count", "count = 0"),
        ("count", "count = 1"),
    ],
    ids=["repeated-key", "unknown-key", "saturated-maybe", "count-zero", "blank-body"],
)
def test_malformed_codebook_header_exits_3_and_writes_nothing(tiny_codebook, tmp_path, key,
                                                              new):
    # each loaded (the later seed, the key ignored, saturated False) or, for
    # a body without rows, failed after numpy's "input contained no data" warning
    text = tiny_codebook.read_text()
    if new.startswith("count = "):  # drop the rows count promises, keep only blank lines
        text = text[: text.index("centers:")] + "centers:\n\n \t\n"
    lines = [new.format(line=line) if line.startswith(f"{key} =") else line
             for line in text.splitlines()]
    book = write(tmp_path / "book.txt", "\n".join(lines) + "\n")
    cfg = write(tmp_path / "cc.cfg", f"codebook = {book}\nb = 0.1\n")
    out = tmp_path / "o"
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = run(["converse-check", "--config", cfg, "--out", str(out)])
    assert code == cli.EXIT_PRECONDITION
    assert "malformed codebook" in stderr.getvalue()
    assert not caught
    assert not out.exists()


def _with_header(codebook_text, key, value):
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in codebook_text.splitlines()]
    return "\n".join(lines) + "\n"


_SIMULATE_DISCRETE = (
    "flavor = {flavor}\nfamily = discrete\n{fading}sigma_z2 = 0.05\ntrials = 100\n"
    "message_i = 1\nmessage_j = 2\n"
)


@pytest.mark.parametrize(
    "command, config, header, expected",
    [
        ("simulate", _SIMULATE_DISCRETE.format(
            flavor="fast", fading="values = 1.0, nan\nweights = 1, 0\n"), None, cli.EXIT_CONFIG),
        ("simulate", _SIMULATE_DISCRETE.format(
            flavor="slow", fading="values = 0.5, 1.0\nweights = 1, nan\n"), None, cli.EXIT_CONFIG),
        ("simulate", "flavor = fast\nfamily = uniform\ng_min = 0.5\ng_max = inf\n"
                     "sigma_z2 = 0.05\nmessage_i = 1\n", None, cli.EXIT_CONFIG),
        ("simulate", "flavor = fast\nfamily = uniform\ng_min = 0.5\ng_max = 1.5\n"
                     "sigma_z2 = 0.05\ntrials = 100\nmessage_i = 1\n", ("slack", "nan"),
         cli.EXIT_PRECONDITION),
        ("converse-check", "b = 0.1\n", ("power_budget", "nan"), cli.EXIT_PRECONDITION),
        ("converse-check", "b = 0.1\n", ("epsilon_n", "-0.5"), cli.EXIT_PRECONDITION),
        ("converse-check", "b = 0.1\n", ("dimension", "x"), cli.EXIT_PRECONDITION),
    ],
    ids=["fast-discrete-nan-value", "slow-nan-weight", "infinite-g-max", "codebook-nan-slack",
         "codebook-nan-power-budget", "codebook-negative-epsilon", "codebook-malformed-dimension"],
)
def test_nonfinite_input_fails_at_the_boundary(pack_dir, tmp_path, command, config, header,
                                                expected):
    # unchecked, the nan gain law and the nan slack ran to a false
    # "bound=nan verdict=VIOLATION" (exit 1), the nan power budget reported
    # required_normalized = nan (exit 1) and the negative epsilon_n passed
    book = pack_dir / "codebook.txt"
    if header is not None:
        book = write(tmp_path / "bad_codebook.txt", _with_header(book.read_text(), *header))
    cfg = write(tmp_path / "run.cfg", f"codebook = {book}\n" + config)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", str(out)]) == expected
    assert not out.exists()


def test_near_codeword_summary_fields(tmp_path):
    cfg = write(
        tmp_path / "nc.cfg",
        "n = 64\nb = 0.1\nsigma_z2 = 1.0\nfamily = uniform\ng_min = 1.0\ng_max = 1.0\n"
        "trials = 2000\nseed = 4\n",
    )
    out = tmp_path / "nc"
    assert run(["near-codeword", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    summary = (out / "near_codeword_summary.txt").read_text()
    for key in ("alpha_n", "error_sum", "oracle_sum", "joint_stderr"):
        assert key in summary
    lines = (out / "near_codeword_report.csv").read_text().splitlines()
    assert len(lines) == 3


# sha256 of near_codeword_report.csv for the configuration below, recorded
# before its rows moved from the estimation reports into cli
_PINNED_NEAR_CODEWORD = {
    "constant": "f883f860c90284188158df866c5fd1819edd076ab1d39d56ea7489aac293af05",
    "uniform": "bd315c28b2cb863f5569966ca856f1bf7b42ea812e138429439e18666752d3a9",
}


@pytest.mark.parametrize(
    "gain, g_range", [("constant", (1.0, 1.0)), ("uniform", (0.5, 1.5))]
)
def test_near_codeword_report_is_pinned(tmp_path, gain, g_range):
    cfg = write(
        tmp_path / "nc.cfg",
        f"n = 64\nb = 0.1\nsigma_z2 = 1.0\nfamily = uniform\ng_min = {g_range[0]}\n"
        f"g_max = {g_range[1]}\ntrials = 9000\nseed = 4\n",
    )
    out = tmp_path / "nc"
    assert run(["near-codeword", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    report = (out / "near_codeword_report.csv").read_bytes()
    assert hashlib.sha256(report).hexdigest() == _PINNED_NEAR_CODEWORD[gain]
    summary = (out / "near_codeword_summary.txt").read_text()
    assert ("oracle_sum = none" in summary) == (gain == "uniform")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma_z2", ["1e-320", "3e-310"])
def test_near_codeword_noncentrality_past_the_float_range_is_refused(tmp_path, capsys, sigma_z2):
    # both exited 0 with a wrong p2; 1e-320 also warned "overflow encountered in divide"
    cfg = write(tmp_path / "nc.cfg", f"n = 16\nb = 0.1\nsigma_z2 = {sigma_z2}\ntrials = 2000\n"
                + _UNIFORM)
    out = tmp_path / "nc"
    assert run(["near-codeword", "--config", cfg, "--out", str(out)]) == cli.EXIT_PRECONDITION
    assert "noise variance" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "power, g_min, messages, verdicts",
    [
        # gamma^4 underflows to 0.0: both bounds are infinite
        ("2.0", "1e-90", "message_i = 1\nmessage_j = 2\n",
         ["bound=inf verdict=vacuous", "bound=inf verdict=vacuous"]),
        # A^2 overflows: the type I bound is 0.0 and the noiseless rate meets it
        ("1e200", "0.5", "message_i = 1\n", ["p_hat=0.0 stderr=0.0 bound=0.0 verdict=ok"]),
    ],
    ids=["tiny-gamma", "huge-power"],
)
@pytest.mark.parametrize("flavor", ["fast", "slow"])
def test_bound_outside_the_float_range_saturates(tmp_path, power, g_min, messages, verdicts,
                                                  flavor):
    # both runs died with ZeroDivisionError / OverflowError in the bound
    pack_cfg = write(tmp_path / "pack.cfg", f"n = 40\npower = {power}\nseed = 1\n"
                     "patience = 500\nmax_codewords = 2\n")
    assert run(["pack", "--config", pack_cfg, "--out", str(tmp_path / "pack")]) == cli.EXIT_OK
    cfg = write(
        tmp_path / "sim.cfg",
        f"codebook = {tmp_path / 'pack' / 'codebook.txt'}\nflavor = {flavor}\nfamily = uniform\n"
        f"g_min = {g_min}\ng_max = 1.5\nsigma_z2 = 0.3\ntrials = 500\n"
        f"grid_resolution = 3\n{messages}",
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "simulate_summary.txt").read_text().splitlines()
    found = [line for line in lines if line.startswith(("type1 ", "type2 "))]
    assert len(found) == len(verdicts)
    for line, verdict in zip(found, verdicts):
        assert verdict in line


def test_zero_fading_support_runs_with_an_explicit_delta_and_no_bound(pack_dir, tmp_path):
    # every Chebyshev bound divides by gamma = 0: the run reports none and judges nothing
    cfg = write(
        tmp_path / "sim.cfg",
        f"codebook = {pack_dir / 'codebook.txt'}\n" + _SIM_RUN.replace("fast", "slow")
        + "family = uniform\ng_min = 0.0\ng_max = 1.5\nallow_zero = true\ndelta = 0.05\n"
        + "grid_resolution = 3\n",
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "simulate_summary.txt").read_text().splitlines()
    assert lines[lines.index("---") + 1] == "delta = 0.05"  # the slack the rule used
    verdicts = [line for line in lines if line.startswith(("type1 ", "type2 "))]
    assert len(verdicts) == 2
    assert all("bound=none verdict=no-bound" in line for line in verdicts)
    header, *rows = (out / "simulate_report.csv").read_text().splitlines()
    bound = header.split(",").index("bound")
    assert len(rows) == 2 * 3 and all(row.split(",")[bound] == "" for row in rows)


def test_scales_default_reproduces_chain(tmp_path):
    out = tmp_path / "sc"
    assert run(["scales", "--out", str(out)]) == cli.EXIT_OK
    summary = (out / "scales_summary.txt").read_text()
    assert "chain_mismatches = 0" in summary
    report = (out / "scales_report.csv").read_text().splitlines()
    assert len(report) == 1 + 30  # header + ordered pairs of 6 kinds
    evidence = (out / "scales_evidence.csv").read_text().splitlines()
    assert evidence[0] == "dominator,dominated,n,log2_difference"
    assert len(evidence) > 30
    regimes = (out / "regimes_report.csv").read_text().splitlines()
    assert len(regimes) == 1 + 12  # header + (flavor x scale x zero-flag)
    assert any(line.startswith("slow,exp,True,zero") for line in regimes[1:])
    assert any(line.startswith("fast,superexp,False,finite_band") for line in regimes[1:])


def test_scales_explicit_pairs(tmp_path):
    cfg = write(tmp_path / "sc.cfg", "pairs = superexp:exp, exp:superexp\n")
    out = tmp_path / "sc"
    assert run(["scales", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "scales_report.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",")[5] == "True"
    assert lines[2].split(",")[5] == "False"


# sha256 of the four scales artifacts, recorded before analysis.dominates
# became the one judge of whether a pair is defined at the largest n
_SCALES_PAIRS = (
    "pairs = superexp:exp, exp:superexp, doubleexp:poly, poly:log, linear:linear, "
    "log:doubleexp\npoly_k = 3.5\na = 0.5\nb = 2.0\n"
)
_PINNED_SCALES = {
    "default": {
        "regimes_report.csv": "ff445e648791ab0810ba057231de77da3425619fc6a492899364438693e0abc0",
        "scales_evidence.csv": "5d515149c0103933cca04a8b61c69e6f8e7ffa4ee12de6853547d8b4d1cac8cf",
        "scales_report.csv": "29665337b84ed4f2b1aac170fd81fe3ffc4a67d01bd1ec82483d45be851b113b",
        "scales_summary.txt": "fe10e6561cfa25f5f1e7ef7ff09d4e5123b14cc3e96e3856d3c3bd93b03e58af",
    },
    "pairs": {
        "regimes_report.csv": "ff445e648791ab0810ba057231de77da3425619fc6a492899364438693e0abc0",
        "scales_evidence.csv": "d6b40dfdb4c41fb097f9689932f2e869575f5ec88e3442f36bbca1651bf637cb",
        "scales_report.csv": "9ef8e7187f4d49066d84ff9cc747127ede7a12137867387d429b1cc9d7bf613f",
        "scales_summary.txt": "50185baaf0e5da1d75e2b648c5a68be98d1546f292f0b043b626320700065acb",
    },
}


@pytest.mark.parametrize("case, config", [("default", ""), ("pairs", _SCALES_PAIRS)])
def test_scales_artifacts_are_pinned(tmp_path, case, config):
    cfg = write(tmp_path / "sc.cfg", config)
    out = tmp_path / "sc"
    assert run(["scales", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert _digests(out) == _PINNED_SCALES[case]


def _digests(out_dir):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in out_dir.iterdir()}


@pytest.mark.parametrize(
    "config",
    [
        "max_exponent = 1100\n",  # 2^1100 does not convert to a float
        "max_exponent = 1020\n",  # the superexp size n log2(n) is inf
        "min_exponent = 8\nmax_exponent = 4\npairs = exp:linear\n",  # empty grid
        "step_exponent = 0\n",
        "step_exponent = -4\n",
        "a = 0\n",
        "pairs = exp:cubic\n",
        "poly_k = 0.5\n",
        "pairs = exp\n",  # no 'dominator:dominated' colon
        "max_exponent = 100000\n",  # refused before the 2^k grid is built
    ],
    ids=["int-overflow", "superexp-overflow", "empty", "zero-step", "negative-step",
         "zero-rate", "unknown-kind", "poly-k-below-1", "pair-without-colon",
         "huge-max-exponent"],
)
def test_scales_bad_grid_is_a_config_error(tmp_path, capsys, config):
    # these ran to a traceback, a chain mismatch (exit 1), an "insufficient
    # evidence" row (exit 0) and a range() error (exit 3); the zero rate, the
    # unknown kind and the exponent below 1 exited 3
    cfg = write(tmp_path / "sc.cfg", config)
    out = tmp_path / "sc"
    assert run(["scales", "--config", cfg, "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    if config == "max_exponent = 100000\n":
        assert "'max_exponent'" in err and "[1, 1023]" in err
    assert not out.exists()


# sha256 of the sweep artifacts for the configuration below, recorded before
# pack and sweep shared one codebook builder
_PINNED_SWEEP = {
    "sweep_report.csv": "58ad4325dcb0d6592a694ffcd2f1333f6eb4b9508ec2f4bd5681d9eeac118b10",
    "sweep_summary.txt": "e442f866a078926545d043e21882e01b19ed36999dc807ca78d039b7de8c1cfc",
}


def test_sweep_report(tmp_path):
    cfg = write(
        tmp_path / "sw.cfg",
        "n_values = 32, 64\nseed = 2\npatience = 1500\nmax_codewords = 64\n",
    )
    out = tmp_path / "sw"
    assert run(["sweep", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    lines = (out / "sweep_report.csv").read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("n,epsilon_n,r0,r1,count")
    summary = (out / "sweep_summary.txt").read_text()
    assert "n=32:" in summary and "n=64:" in summary
    assert _digests(out) == _PINNED_SWEEP


def test_out_env_var_sets_default_directory(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "env_out"))
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "p.cfg", "n = 32\nseed = 1\npatience = 500\nmax_codewords = 8\n")
    assert run(["pack", "--config", cfg]) == cli.EXIT_OK
    assert (tmp_path / "env_out" / "codebook.txt").exists()


def test_config_echo_embedded_in_summary(pack_dir):
    summary = (pack_dir / "pack_summary.txt").read_text()
    for line in ("n = 100", "seed = 42", "patience = 4000", "max_codewords = 48"):
        assert line in summary
