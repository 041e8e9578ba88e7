import hashlib

import numpy as np
import pytest

from difading import cli, seeding


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


def test_pack_writes_codebook_and_summary(pack_dir):
    codebook = (pack_dir / "codebook.txt").read_text()
    assert codebook.startswith("format = difading-codebook-v1")
    summary = (pack_dir / "pack_summary.txt").read_text()
    assert "command = pack" in summary
    assert "count = 48" in summary
    assert "epsilon_n" in summary


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
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_PRECONDITION


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
    assert run(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == cli.EXIT_IO


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
    ],
    ids=["fast-discrete-nan-value", "slow-nan-weight", "infinite-g-max", "codebook-nan-slack",
         "codebook-nan-power-budget", "codebook-negative-epsilon"],
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
    assert not out.exists() or not any(out.iterdir())


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
