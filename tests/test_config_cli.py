"""Tests for config parsing/hashing and the command-line interface."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from cardioclr import cli
from cardioclr.analysis import cohens_d, match_paired_experiments, pairing_index
from cardioclr.augment import default_atom_grid
from cardioclr.config import (
    SCHEMA,
    RunConfig,
    config_hash,
    downstream_config,
    encoder_config,
    parse_config,
    parse_config_text,
    pretrain_config,
    resolved_text,
)
from cardioclr.errors import ConfigError
from cardioclr.nn import EncoderConfig, build_ssl_graph, load_checkpoint, save_checkpoint
from cardioclr.nn.model import ModelGraph
from cardioclr import protocol
from cardioclr.protocol import LedgerRow, read_ledger, write_ledger


def _other_value(key, default) -> str:
    if isinstance(default, tuple):
        return ",".join(str(v + 1) for v in default)
    if isinstance(default, float):
        return repr(default / 2 if default else 0.25)
    assert isinstance(default, int), f"no other value for {key} = {default!r}"
    return str(default + 1)


def _effects(cfg):
    """Everything a run takes from its config: the stage configs. The
    downstream split takes nothing from it, and the seed comes from the plan
    or `--seed`."""
    return pretrain_config(cfg, seed=0), downstream_config(cfg, seed=0), encoder_config(cfg)


class TestSchema:
    KEYS = [(section, key) for section, entries in SCHEMA.items() for key in entries]

    @pytest.mark.parametrize("section,key", KEYS)
    def test_every_key_reaches_a_stage_or_the_split(self, section, key):
        attr, _ = SCHEMA[section][key]
        value = _other_value(key, getattr(RunConfig(), attr))
        cfg = parse_config_text(f"[{section}]\n{key} = {value}\n")
        assert _effects(cfg) != _effects(RunConfig()), f"[{section}] {key} changes nothing"

    def test_default_resolved_text(self):
        # the hashed text behind every experiment id; a change here re-keys
        # every sweep directory
        assert resolved_text(RunConfig()) == (
            "[pretrain]\nbatch_size = 256\nmax_epochs = 200\n"
            "patience = 10\nval_fraction = 0.2\nwarmup_epochs = 20\npeak_lr = 0.1\n\n"
            "[downstream]\nadam_lr = 0.0001\nbatch_size = 32\nmax_epochs = 100\n"
            "patience = 20\n\n"
            "[model]\nchannels = 8,16,32,64,128\nkernels = 64,32,16,8,8\n"
            "pool_widths = 4,4,4,4,4\nprojection_dim = 128\n"
        )

    @pytest.mark.parametrize("section,key", [
        ("pretrain", "temperature"), ("pretrain", "lr_floor_fraction"),
        ("pretrain", "lars_trust"), ("pretrain", "lars_momentum"),
        ("pretrain", "lars_weight_decay"), ("downstream", "dropout"),
    ])
    def test_key_of_a_constant_is_unknown(self, section, key):
        # fixed in code as the SimCLR recipe's values, so no run sets them
        with pytest.raises(ConfigError) as info:
            parse_config_text(f"# fixed\n[{section}]\n{key} = 0.5\n")
        assert str(info.value) == f"line 3: unknown key {key!r} in section [{section}]"
        assert not hasattr(RunConfig(), key)

    def test_dead_noise_distribution_key_is_gone(self):
        with pytest.raises(ConfigError):
            parse_config_text("[augment]\nnoise_distribution = uniform\n")

    @pytest.mark.parametrize("text", [
        "[run]\nseed = x",
        # keys of constants, so unknown: test_key_of_a_constant_is_unknown checks the message
        "[pretrain]\ntemperature = 0",
        "[pretrain]\ntemperature = -1",
        "[pretrain]\nbatch_size = 1",
        "[pretrain]\nbatch_size = 1.5",
        "[pretrain]\nval_fraction = 1",
        "[pretrain]\nval_fraction = -0.1",
        "[pretrain]\npatience = 200",
        "[pretrain]\npeak_lr = -0.1",
        "[pretrain]\nlr_floor_fraction = -0.01",
        "[pretrain]\nlars_trust = -1",
        "[pretrain]\nlars_momentum = -0.9",
        "[pretrain]\nlars_weight_decay = -1e-6",
        "[downstream]\nadam_lr = -1e-4",
        "[downstream]\nbatch_size = 0",
        "[downstream]\npatience = 100",
        "[downstream]\ndropout = 1",
        "[downstream]\ndropout = -0.5",
        "[model]\nchannels = 8,16",
        "[model]\nkernels = 64,32,16,8",
        "[model]\npool_widths = 4,4,4,4,4,4",
        "[model]\nchannels = a,b",
    ])
    def test_rejected_values(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)


class TestConfig:
    def test_empty_config_is_all_defaults(self):
        cfg = parse_config_text("")
        assert cfg.peak_lr == 0.1
        assert cfg.adam_lr == 1e-4
        assert cfg.pretrain_patience == 10
        assert cfg.head_patience == 20
        assert cfg.pretrain_batch_size == 256
        assert cfg.head_batch_size == 32
        assert cfg.pretrain_max_epochs == 200
        assert cfg.head_max_epochs == 100
        assert cfg.warmup_epochs == 20
        assert cfg.channels == (8, 16, 32, 64, 128)

    def test_negative_temperature_rejected(self):
        # as any temperature: it is `contrastive.TEMPERATURE`, not a key
        with pytest.raises(ConfigError):
            parse_config_text("[pretrain]\ntemperature = -1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[pretrain]\ntemperture = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[pretraining]\ntemperature = 0.1\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("[pretrain]\ntemperature 0.1\n")

    def test_resolved_text_is_fixed_point(self):
        cfg = parse_config_text("[pretrain]\nval_fraction = 0.3\npeak_lr = 0.1234567\n"
                                "[model]\nchannels = 4,8\nkernels = 8,4\npool_widths = 10,10\n")
        text = resolved_text(cfg)
        again = parse_config_text(text)
        assert resolved_text(again) == text
        assert again == cfg
        rounded = parse_config_text(text.replace("0.1234567", "0.123457"))
        assert rounded != cfg and config_hash(rounded) != config_hash(cfg)

    def test_hash_stable_under_key_reordering(self):
        a = parse_config_text("[pretrain]\nval_fraction = 0.3\nbatch_size = 64\n")
        b = parse_config_text("[pretrain]\nbatch_size = 64\nval_fraction = 0.3\n")
        assert config_hash(a) == config_hash(b)
        c = parse_config_text("[pretrain]\nbatch_size = 65\nval_fraction = 0.3\n")
        assert config_hash(a) != config_hash(c)

    def test_comments_ignored(self):
        cfg = parse_config_text("# top\n[pretrain]\nval_fraction = 0.3  # trailing\n")
        assert cfg.val_fraction == 0.3

    @pytest.mark.parametrize("text,message", [
        ("[model]\nchannels = 8,0,32,64,128", "[model] channels must be at least 1, got (8, 0, 32, 64, 128)"),
        ("[model]\nkernels = 64,32,16,0,8", "[model] kernels must be at least 1"),
        ("[model]\npool_widths = 0,4,4,4,4", "[model] pool_widths must be at least 1"),
        ("[model]\nchannels =\nkernels =\npool_widths =", "[model] the encoder needs at least one"),
        ("[model]\nprojection_dim = 0", "[model] projection_dim must be at least 1"),
        ("[pretrain]\nmax_epochs = 0\npatience = -1",
         "[pretrain] need 0 <= patience < max_epochs, got patience -1 and max_epochs 0"),
        ("[downstream]\nmax_epochs = 0\npatience = -1",
         "[downstream] need 0 <= patience < max_epochs, got patience -1 and max_epochs 0"),
        ("[pretrain]\npatience = -5", "[pretrain] need 0 <= patience < max_epochs"),
        ("[downstream]\npatience = -5", "[downstream] need 0 <= patience < max_epochs"),
        ("[pretrain]\nwarmup_epochs = -3", "[pretrain] warmup_epochs must be non-negative"),
        ("[pretrain]\ntemperature = nan", "line 2: unknown key 'temperature' in section [pretrain]"),
        ("[pretrain]\npeak_lr = inf", "line 2: bad value for peak_lr: 'inf'"),
        ("[pretrain]\n\nval_fraction = -inf", "line 3: bad value for val_fraction"),
        ("[downstream]\nadam_lr = NaN", "line 2: bad value for adam_lr"),
        ("[downstream]\ndropout = infinity", "line 2: unknown key 'dropout' in section [downstream]"),
        # an empty entry is a typo, not a shorter list
        ("[model]\nchannels = 4,,8,8,16,16", "line 2: bad value for channels: '4,,8,8,16,16'"),
        ("[model]\n\nkernels = 16,8,8,4,4,", "line 3: bad value for kernels: '16,8,8,4,4,'"),
        ("[model]\npool_widths = ,4,4,4,4,4", "line 2: bad value for pool_widths"),
        ("[run]\nseed = 1", "line 1: unknown section [run]"),
        # the last value would win, and the hash name a config nobody wrote
        ("[pretrain]\nbatch_size = 16\nbatch_size = 32",
         "line 3: key 'batch_size' already set in [pretrain] on line 2"),
        ("[pretrain]\nbatch_size = 16\n[downstream]\nbatch_size = 16\n[pretrain]\n"
         "batch_size = 16", "line 6: key 'batch_size' already set in [pretrain] on line 2"),
    ])
    def test_out_of_range_values_name_their_place(self, text, message):
        with pytest.raises(ConfigError) as info:
            parse_config_text(text)
        assert str(info.value).startswith(message)


class TestReadersNameTheFile:
    def test_bad_config_value_names_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pretrain]\nbatch_size = lots\n")
        with pytest.raises(ConfigError, match=rf"^{path}: line 2: bad value for batch_size: 'lots'"):
            parse_config(path)

    def test_bad_config_combination_names_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[pretrain]\npatience = -5\n")
        with pytest.raises(ConfigError, match=rf"^{path}: \[pretrain\] need 0 <= patience"):
            parse_config(path)

    def test_non_utf8_config_is_a_config_error(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[pretrain]\nbatch_size = \xff\n")
        with pytest.raises(ConfigError, match=rf"^{path}: not UTF-8 text"):
            parse_config(path)

    def test_bad_plan_names_the_file(self, tmp_path):
        path = tmp_path / "p.plan"
        path.write_text("[ssl_sets]\nephnogram\n[policies]\nnone|rev\n[tasks]\npascal:binary\n")
        with pytest.raises(ConfigError, match=rf"^{path}: plan is missing a non-empty \[seeds\]"):
            protocol.parse_plan(path)

    def test_non_utf8_plan_is_a_config_error(self, tmp_path):
        path = tmp_path / "p.plan"
        path.write_bytes(b"[ssl_sets]\n\xffephnogram\n")
        with pytest.raises(ConfigError, match=rf"^{path}: not UTF-8 text"):
            protocol.parse_plan(path)

    def test_prepare_on_a_non_utf8_manifest_names_it(self, tmp_path, capsys):
        manifest = tmp_path / "m.tsv"
        manifest.write_bytes(b"a.wav\trec\xff\tsynthetic\t\n")
        code = cli.main(["prepare", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: FormatError: {manifest}: not UTF-8 text") and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestCliBasics:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_plan_file_exits_1(self, tmp_path, capsys):
        code = cli.main([
            "sweep", "--plan", str(tmp_path / "missing.plan"),
            "--windows", str(tmp_path), "--out", str(tmp_path / "out"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_sweep_rejects_bad_jobs(self, tmp_path, capsys, jobs):
        code = cli.main([
            "sweep", "--plan", str(tmp_path / "p.plan"), "--windows", str(tmp_path),
            "--out", str(tmp_path / "out"), "--jobs", jobs,
        ])
        assert code != 0
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["pretrain", "--datasets", "synthetic", "--policy", "none|rev", "--out", "enc.ckpt",
         "--windows", "."],
        ["finetune", "--ckpt", "enc.ckpt", "--dataset", "synthetic", "--out", "model.ckpt",
         "--windows", "."],
        ["synth", "--out", "raw"],
        ["gradcheck"],
    ], ids=lambda c: c[0])
    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        assert cli.main([*command, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be at least 0, got -1" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("datasets,message", [
        ("pascal+pascal", "repeated dataset tag 'pascal' in 'pascal+pascal'"),
        ("synthetic+circor", "unknown dataset tag 'circor' in 'synthetic+circor'"),
        ("synthetic+", "unknown dataset tag '' in 'synthetic+'"),
    ], ids=["repeated", "unknown", "empty"])
    def test_bad_pretrain_datasets_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                     datasets, message):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["pretrain", "--windows", ".", "--datasets", datasets, "--policy",
                         "none|rev", "--out", "enc.ckpt"]) == 1
        assert capsys.readouterr().err.startswith(f"error: ConfigError: {message}")
        assert list(tmp_path.iterdir()) == []

    def test_sweep_has_no_seed_flag(self, tmp_path, capsys, monkeypatch):
        # a sweep's seeds are its plan's [seeds]
        monkeypatch.chdir(tmp_path)
        assert cli.main(["sweep", "--plan", "p.plan", "--out", "out", "--windows", ".",
                         "--seed", "1"]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_seed_names_the_file_and_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "old.cfg").write_text("[pretrain]\nbatch_size = 8\n[run]\nseed = 1\n")
        assert cli.main(["pretrain", "--config", "old.cfg", "--windows", ".", "--datasets",
                         "synthetic", "--policy", "none|rev", "--out", "enc.ckpt"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: ConfigError: old.cfg: line 3: unknown section [run]")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.cfg"]

    @pytest.mark.parametrize("command", [
        ["pretrain", "--datasets", "synthetic", "--policy", "none|rev", "--out", "enc.ckpt"],
        ["finetune", "--ckpt", "enc.ckpt", "--dataset", "synthetic", "--out", "model.ckpt"],
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("text", [
        "[model]\nchannels = 8,0,32,64,128",
        "[model]\nprojection_dim = 0",
        "[pretrain]\ntemperature = nan",
        "[pretrain]\npeak_lr = inf",
        "[downstream]\nmax_epochs = 0\npatience = -1",
        "[pretrain]\nwarmup_epochs = -3",
    ])
    def test_out_of_range_config_is_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                   command, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.cfg").write_text(text + "\n")
        assert cli.main([*command, "--config", "bad.cfg", "--windows", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError: ") and "Traceback" not in err
        assert not (tmp_path / command[-1]).exists()

    @pytest.mark.parametrize("bad,lineno", [("[seeds]\nx1\n", 8),
                                            ("[seeds]\n1\n[options]\nbaseline_runs = two\n", 10)])
    def test_bad_plan_number_names_the_line(self, tmp_path, capsys, bad, lineno):
        plan = tmp_path / "p.plan"
        plan.write_text("[ssl_sets]\nephnogram\n[policies]\nnone|rev\n[tasks]\npascal:binary\n"
                        + bad)
        code = cli.main(["sweep", "--plan", str(plan), "--windows", str(tmp_path),
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: ConfigError: {plan}: plan line {lineno}: ")

    def test_malformed_plan_policy_is_a_parameter_error(self, tmp_path, capsys):
        plan = tmp_path / "p.plan"
        plan.write_text("[ssl_sets]\nephnogram\n[policies]\nflip(1)|none\n"
                        "[tasks]\npascal:binary\n[seeds]\n0\n")
        code = cli.main(["sweep", "--plan", str(plan), "--windows", str(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: ParameterError: {plan}: plan line 4: flip ")
        assert not (tmp_path / "out").exists()

    def test_duplicate_plan_entries_are_a_config_error(self, tmp_path, capsys):
        plan = tmp_path / "p.plan"
        plan.write_text("[ssl_sets]\nephnogram\n[policies]\nnone|flip(0.5)\nnone|flip(0.5)\n"
                        "[tasks]\npascal:binary\n[seeds]\n0\n0\n")
        code = cli.main(["sweep", "--plan", str(plan), "--windows", str(tmp_path),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"error: ConfigError: {plan}: duplicate policy 'none|flip(0.5)'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("metric", ["accuracy", "odd_micro_f1", "ood", "micro_f1"])
    def test_analyze_rejects_unknown_metric(self, tmp_path, capsys, metric):
        code = cli.main(["analyze", "--ledger", str(tmp_path / "ledger.csv"),
                         "--metric", metric, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_analyze_of_a_missing_ledger_says_it_does_not_exist(self, tmp_path, capsys):
        ledger = tmp_path / "nope.csv"
        code = cli.main(["analyze", "--ledger", str(ledger), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: IOError: [Errno 2] No such file or directory: '{ledger}'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k", ["0", "-1", "two"])
    def test_analyze_rejects_bad_k(self, tmp_path, capsys, k):
        code = cli.main(["analyze", "--ledger", str(tmp_path / "ledger.csv"),
                         "--out", str(tmp_path / "out"), "--k", k])
        assert code == 2
        assert "--k" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--rate", "-5"], "sample rate must be positive, got -5"),
        (["--rate", "0"], "sample rate must be positive, got 0"),
        (["--murmur-low", "500", "--murmur-high", "100"], "murmur band (500.0, 100.0) Hz"),
        (["--murmur-low", "-10"], "murmur band (-10.0, 400.0) Hz"),
        (["--murmur-high", "1000"], "< rate/2 = 1000.0"),
        (["--murmur-amp", "-0.1"], "murmur_amp must be non-negative, got -0.1"),
        (["--noise-floor", "-0.002"], "noise_floor must be non-negative, got -0.002"),
    ], ids=["negative_rate", "zero_rate", "inverted_band", "negative_band", "band_at_nyquist",
            "negative_amp", "negative_noise"])
    def test_synth_rejects_a_bad_profile(self, tmp_path, capsys, flags, message):
        code = cli.main(["synth", "--out", str(tmp_path / "raw"), "--n-recordings", "2", *flags])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ParameterError: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "raw").exists()

    @pytest.mark.parametrize("flag", [["--granularity", "per-window"], ["--seed", "1"]])
    def test_prepare_has_no_split_flags(self, tmp_path, capsys, flag):
        code = cli.main(["prepare", "--manifest", str(tmp_path / "m.tsv"),
                         "--out", str(tmp_path / "out"), *flag])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flag", [["--config", "run.cfg"], ["--seed", "1"]])
    def test_evaluate_reads_no_config(self, tmp_path, capsys, flag):
        # the split it scores on depends on the store alone
        code = cli.main(["evaluate", "--model", str(tmp_path / "m.ckpt"), "--dataset", "synthetic",
                         "--windows", str(tmp_path), *flag])
        assert code == 2 and "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("trials", ["0", "-2", "two"])
    def test_gradcheck_rejects_bad_trials(self, capsys, trials):
        # zero trials would check nothing and report an overall error of 0
        assert cli.main(["gradcheck", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert "argument --trials" in captured.err
        assert "overall" not in captured.out

    def test_gradcheck_exits_0(self, capsys):
        assert cli.main(["gradcheck", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out
        assert "overall" in out

    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "cardioclr", "--help"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "gradcheck" in proc.stdout

    # sets nothing itself: records each BLAS variable as numpy is first
    # imported, then runs `python -m cardioclr --help`
    _BLAS_SPY = """
import json, os, runpy, sys
VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({var: os.environ.get(var) for var in VARS})

sys.meta_path.insert(0, Spy())
sys.argv = ["cardioclr", "--help"]
try:
    runpy.run_module("cardioclr", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(seen))
"""

    @pytest.mark.parametrize("user", [None, "2"])
    def test_blas_runs_one_thread_unless_the_user_sets_it(self, user):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if user is not None:
            env["OPENBLAS_NUM_THREADS"] = user
        proc = subprocess.run([sys.executable, "-c", self._BLAS_SPY], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.strip().splitlines()[-1])
        assert seen == [{"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": user or "1",
                         "MKL_NUM_THREADS": "1", "BLIS_NUM_THREADS": "1",
                         "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}]


class TestCliPipeline:
    def test_synth_prepare_round_trip(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert cli.main([
            "--quiet", "synth", "--out", str(raw), "--seed", "3", "--n-recordings", "4",
        ]) == 0
        assert cli.main([
            "--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
            "--out", str(tmp_path / "stores"),
        ]) == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(out_lines[-1])
        assert payload["windows"]["synthetic"] > 0
        assert (tmp_path / "stores" / "synthetic" / "windows.f32").exists()
        assert (tmp_path / "stores" / "synthetic" / "windows.json").exists()

    def test_finetune_checks_the_split_before_embedding(self, tmp_path, capsys, monkeypatch):
        """Two recordings leave the test part empty, so `finetune` fails with
        the sweep's message before it embeds a window or trains a head, and
        writes no model."""
        raw, stores = tmp_path / "raw", tmp_path / "stores"
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "3",
                         "--n-recordings", "2"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        cfg = EncoderConfig(channels=(2,) * 5, kernels=(4,) * 5, projection_dim=8)
        save_checkpoint(tmp_path / "enc.ckpt", build_ssl_graph(cfg, seed=0))

        def never(*args, **kwargs):
            raise AssertionError("finetune embedded or trained before checking its split")

        monkeypatch.setattr(ModelGraph, "embed", never)
        monkeypatch.setattr(protocol, "train_head", never)
        capsys.readouterr()
        assert cli.main(["--quiet", "finetune", "--ckpt", str(tmp_path / "enc.ckpt"),
                         "--dataset", "synthetic", "--windows", str(stores),
                         "--out", str(tmp_path / "model.ckpt")]) == 1
        assert capsys.readouterr().err == (
            "error: DataError: dataset 'synthetic' splits into train/val/test sizes "
            "[5, 0, 0]; heads need a non-empty train and test split\n")
        assert not (tmp_path / "model.ckpt").exists()

    def test_pretrain_leaves_out_the_test_split_and_finetune_scores_it_at_any_seed(
            self, tmp_path, capsys, monkeypatch):
        raw, stores, run = tmp_path / "raw", tmp_path / "stores", tmp_path / "run"
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[pretrain]\nbatch_size = 8\nmax_epochs = 1\npatience = 0\nwarmup_epochs = 0\n"
            "[downstream]\nmax_epochs = 1\npatience = 0\n"
            "[model]\nchannels = 2,2,2,2,2\nkernels = 4,4,4,4,4\nprojection_dim = 8\n"
        )
        common = ["--config", str(cfg), "--windows", str(stores)]
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "4",
                         "--n-recordings", "6"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        x, metas = protocol.WindowStores(stores).load("synthetic")
        train, val, test = protocol.downstream_splits(metas, "synthetic")
        assert test
        pretrained, scored = [], []
        real_pretrain, real_evaluate = protocol.pretrain, cli.evaluate

        def pretrain(graph, windows, *args):
            pretrained.append(windows.copy())
            return real_pretrain(graph, windows, *args)

        def evaluate(graph, features, scored_metas, task):
            scored.append([(m.record_id, m.window_index) for m in scored_metas])
            return real_evaluate(graph, features, scored_metas, task)

        monkeypatch.setattr(protocol, "pretrain", pretrain)
        monkeypatch.setattr(cli, "evaluate", evaluate)
        assert cli.main(["--quiet", "pretrain", *common, "--datasets", "synthetic",
                         "--policy", "none|inv", "--out", str(run / "enc.ckpt")]) == 0
        [windows] = pretrained
        assert np.array_equal(windows, x[sorted(train + val)])
        for seed in ("1", "2"):
            assert cli.main(["--quiet", "finetune", *common, "--seed", seed,
                             "--ckpt", str(run / "enc.ckpt"), "--dataset", "synthetic",
                             "--out", str(run / f"model{seed}.ckpt")]) == 0
        test_ids = [(metas[i].record_id, metas[i].window_index) for i in test]
        assert scored == [test_ids, test_ids]

    def test_pretrain_policy_keeps_every_digit(self, tmp_path, monkeypatch):
        raw, stores, run = tmp_path / "raw", tmp_path / "stores", tmp_path / "run"
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[pretrain]\nbatch_size = 8\nmax_epochs = 1\npatience = 0\nwarmup_epochs = 0\n"
            "[model]\nchannels = 2,2,2,2,2\nkernels = 4,4,4,4,4\nprojection_dim = 8\n"
        )
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "4",
                         "--n-recordings", "6"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        trained, real_pretrain = [], protocol.pretrain

        def pretrain(graph, windows, policy, *args):
            trained.append(policy)
            return real_pretrain(graph, windows, policy, *args)

        monkeypatch.setattr(protocol, "pretrain", pretrain)
        policies = ["none|flip(0.1234567)", "none|flip(0.123457)", "none|flip(0.9999999)"]
        encoder_ids = set()
        for i, policy in enumerate(policies):
            out = run / f"enc{i}.ckpt"
            assert cli.main(["--quiet", "pretrain", "--config", str(cfg), "--windows", str(stores),
                             "--datasets", "synthetic", "--policy", policy,
                             "--out", str(out)]) == 0
            extra = load_checkpoint(out)[1]["extra"]
            assert extra["policy"] == str(trained[i]) == policy
            encoder_ids.add(extra["encoder_id"])
        assert [a.params for p in trained for a in p.right] == [(0.1234567,), (0.123457,),
                                                                 (0.9999999,)]
        assert len(encoder_ids) == 3

    def test_history_and_evaluate_json_are_written_atomically(self, tmp_path, capsys, monkeypatch):
        raw, stores, run = tmp_path / "raw", tmp_path / "stores", tmp_path / "run"
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[pretrain]\nbatch_size = 8\nmax_epochs = 2\npatience = 1\nwarmup_epochs = 1\n"
            "[downstream]\nmax_epochs = 2\npatience = 1\n"
            "[model]\nchannels = 2,2,2,2,2\nkernels = 4,4,4,4,4\nprojection_dim = 8\n"
        )
        common = ["--config", str(cfg), "--windows", str(stores)]
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "4", "--n-recordings", "6"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        assert cli.main(["--quiet", "pretrain", *common, "--datasets", "synthetic", "--policy",
                         "none|inv", "--out", str(run / "enc.ckpt"),
                         "--history", str(run / "history.csv")]) == 0
        assert cli.main(["--quiet", "finetune", *common, "--ckpt", str(run / "enc.ckpt"),
                         "--dataset", "synthetic", "--out", str(run / "model.ckpt")]) == 0
        evaluate = ["--quiet", "evaluate", "--windows", str(stores), "--model", str(run / "model.ckpt"),
                    "--dataset", "synthetic", "--json", str(run / "eval.json")]
        capsys.readouterr()
        assert cli.main(evaluate) == 0
        printed = json.loads(capsys.readouterr().out.splitlines()[0])
        assert json.loads((run / "eval.json").read_text()) == printed
        history = (run / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,lr" and len(history) == 3
        names = sorted(p.name for p in run.iterdir())
        assert names == ["enc.ckpt", "eval.json", "history.csv", "model.ckpt"]

        # a marker, so a replace that went through would show
        (run / "eval.json").write_bytes(b"{}")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        assert cli.main(evaluate) == 1
        assert "replace failed" in capsys.readouterr().err
        assert (run / "eval.json").read_bytes() == b"{}"
        assert sorted(p.name for p in run.iterdir()) == names

    def test_sweep_of_another_config_into_a_used_out_exits_1(self, tmp_path, capsys):
        """One config per sweep directory: a changed `[pretrain]` value is a
        `ConfigError` naming the ledger and line, and the directory keeps its
        bytes and mtimes."""
        raw, stores, sweep = (tmp_path / d for d in ("raw", "stores", "sweep"))
        text = ("[pretrain]\nbatch_size = 4\nmax_epochs = 1\npatience = 0\nwarmup_epochs = 0\n"
                "peak_lr = {}\n[downstream]\nmax_epochs = 1\npatience = 0\n"
                "[model]\nchannels = 1\nkernels = 4\npool_widths = 100\nprojection_dim = 2\n")
        cfg, changed = tmp_path / "a.cfg", tmp_path / "b.cfg"
        cfg.write_text(text.format("0.01"))
        changed.write_text(text.format("0.02"))
        plan = tmp_path / "one.plan"
        plan.write_text("[ssl_sets]\nsynthetic\n[policies]\nnone|inv\n[tasks]\nsynthetic:binary\n"
                        "[seeds]\n4\n")
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "4",
                         "--n-recordings", "20"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        sweep_args = ["--quiet", "sweep", "--windows", str(stores), "--plan", str(plan),
                      "--out", str(sweep)]
        assert cli.main([*sweep_args, "--config", str(cfg)]) == 0
        tree = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in sweep.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert cli.main([*sweep_args, "--config", str(changed)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: ConfigError: {sweep / 'ledger.csv'}: line 2: experiment id ")
        assert {p: (p.read_bytes(), p.stat().st_mtime_ns)
                for p in sweep.rglob("*") if p.is_file()} == tree

    def test_cli_path_reproduces_a_sweep_entry(self, tmp_path, capsys):
        raw, stores, sweep, run = (tmp_path / d for d in ("raw", "stores", "sweep", "run"))
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(
            "[pretrain]\nbatch_size = 8\nmax_epochs = 2\npatience = 1\nwarmup_epochs = 1\n"
            "[downstream]\nmax_epochs = 2\npatience = 1\nadam_lr = 0.001\n"
            "[model]\nchannels = 2,2,2,2,2\nkernels = 4,4,4,4,4\nprojection_dim = 8\n"
        )
        plan = tmp_path / "two.plan"
        plan.write_text("[ssl_sets]\nsynthetic\n[policies]\nnone|inv\n[tasks]\nsynthetic:binary\n"
                        "[seeds]\n3\n4\n[options]\nbaseline_runs = 0\n")
        common = ["--config", str(cfg), "--windows", str(stores)]
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "4",
                         "--n-recordings", "20"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        assert cli.main(["--quiet", "sweep", *common, "--plan", str(plan), "--out", str(sweep)]) == 0
        rows = {row.seed: row for row in read_ledger(sweep / "ledger.csv")}
        assert sorted(rows) == [3, 4] and all(r.status == "ok" for r in rows.values())
        sweep_encoders = {load_checkpoint(p)[1]["extra"]["seed"]: p
                          for p in (sweep / "encoders").glob("*.ckpt")}
        assert sorted(sweep_encoders) == [3, 4]

        for seed, row in rows.items():
            enc, model = run / f"enc{seed}.ckpt", run / f"model{seed}.ckpt"
            sweep_encoder = sweep_encoders[seed]
            for policy in (" none | inv ", "none|inv"):  # one encoder, however it is spelled
                assert cli.main(["--quiet", "pretrain", *common, "--datasets", "synthetic",
                                 "--policy", policy, "--seed", str(seed), "--out", str(enc)]) == 0
                assert enc.read_bytes() == sweep_encoder.read_bytes()

            assert cli.main(["--quiet", "finetune", *common, "--ckpt", str(enc),
                             "--dataset", "synthetic", "--task", "binary", "--seed", str(seed),
                             "--out", str(model)]) == 0
            models = [load_checkpoint(path) for path in (model, sweep / row.checkpoint)]
            (cli_graph, cli_meta), (sweep_graph, sweep_meta) = models
            assert [a.tobytes() for _, a in cli_graph.named_params()] == \
                [a.tobytes() for _, a in sweep_graph.named_params()]
            assert cli_meta["extra"].pop("encoder_checkpoint") == str(enc)
            assert sweep_meta["extra"].pop("encoder_checkpoint") == f"encoders/{sweep_encoder.name}"
            assert cli_meta == sweep_meta

            capsys.readouterr()
            assert cli.main(["--quiet", "evaluate", "--windows", str(stores), "--model", str(model),
                             "--dataset", "synthetic", "--split", "test"]) == 0
            printed = capsys.readouterr().out.splitlines()[-1].rsplit(",", 3)[1:]
            assert printed == [f"{v:.6f}" for v in (row.accuracy, row.micro_f1, row.macro_f1)]

    def test_paper_grids_sweep_into_pairs_and_best_policies(self, tmp_path, capsys):
        """`grid 0vs1` + `grid 1vs1` sweep all 153 policies of the paper's
        grid: every atom finds matched pairs, and `analyze` reports the best
        policy of the task."""
        raw, stores, sweep, report = (tmp_path / d for d in ("raw", "stores", "sweep", "report"))
        cfg = tmp_path / "smallest.cfg"
        cfg.write_text(
            "[pretrain]\nbatch_size = 4\nmax_epochs = 1\npatience = 0\nwarmup_epochs = 0\n"
            "[downstream]\nmax_epochs = 1\npatience = 0\n"
            "[model]\nchannels = 1\nkernels = 4\npool_widths = 100\nprojection_dim = 2\n"
        )
        plan = tmp_path / "paper.plan"
        plan.write_text("[ssl_sets]\nsynthetic\n[policies]\ngrid 0vs1\ngrid 1vs1\n"
                        "[tasks]\nsynthetic:binary\n[seeds]\n4\n[options]\nbaseline_runs = 0\n")
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "4",
                         "--n-recordings", "20"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        start = time.monotonic()
        assert cli.main(["--quiet", "sweep", "--config", str(cfg), "--windows", str(stores),
                         "--plan", str(plan), "--out", str(sweep), "--jobs", "2"]) == 0
        elapsed = time.monotonic() - start
        rows = read_ledger(sweep / "ledger.csv")
        assert len(rows) == 17 + 136 and all(r.status == "ok" for r in rows)
        index = pairing_index(rows)
        for atom in map(str, default_atom_grid()):
            # `none|atom` has no counterpart; each of the atom's 16 pairs
            # `atom|b` has `none|b`
            with_atom, without = match_paired_experiments(index, atom)
            assert len(with_atom) == len(without) == 16, atom

        assert cli.main(["--quiet", "analyze", "--ledger", str(sweep / "ledger.csv"),
                         "--metric", "id_micro_f1", "--out", str(report)]) == 0
        [best] = json.loads((report / "report.json").read_text())["best_policies"]
        top = max(r.micro_f1 for r in rows)
        assert best["micro_f1"] == top
        assert best["policy"] == min(r.policy for r in rows if r.micro_f1 == top)
        assert elapsed < 30, f"the 153-policy desk sweep took {elapsed:.1f} s"

    def test_analyze_reads_the_metric_it_names(self, tmp_path):
        # rev|inv pairs with none|inv; every (kind, metric) column holds
        # other values, so each choice gives its own effect size
        rng = np.random.default_rng(0)
        rows = [
            LedgerRow(experiment_id=f"{policy}-{kind}-{seed}", ssl_set="ephnogram",
                      policy=policy, downstream="pascal", task="binary",
                      eval_dataset="pascal" if kind == "in_distribution" else "physionet2016",
                      eval_kind=kind, seed=seed, checkpoint="x.ckpt",
                      **dict(zip(("accuracy", "micro_f1", "macro_f1"), rng.uniform(size=3))))
            for policy in ("rev|inv", "none|inv") for kind in ("in_distribution", "ood")
            for seed in (1, 2, 3)
        ]
        write_ledger(tmp_path / "ledger.csv", rows)
        rows = read_ledger(tmp_path / "ledger.csv")
        for metric in cli.ANALYZE_METRICS:
            kind_name, _, column = metric.partition("_")
            kind = "ood" if kind_name == "ood" else "in_distribution"
            groups = [[getattr(r, column) for r in rows if r.policy == policy and r.eval_kind == kind]
                      for policy in ("rev|inv", "none|inv")]
            out = tmp_path / metric
            assert cli.main(["--quiet", "analyze", "--ledger", str(tmp_path / "ledger.csv"),
                             "--metric", metric, "--out", str(out), "--k", "1"]) == 0
            report = json.loads((out / "report.json").read_text())
            [effect] = report["effect_sizes"]
            assert effect["augmentation"] == "rev"
            assert effect["d"] == cohens_d(*groups)
            assert [o["eval_kind"] for o in report["occurrences"]] == ["in_distribution", "ood"]

    def test_pretrain_without_validation_prints_strict_json(self, tmp_path, capsys):
        raw, stores = tmp_path / "raw", tmp_path / "stores"
        cfg = tmp_path / "noval.cfg"
        cfg.write_text(
            "[pretrain]\nbatch_size = 4\nmax_epochs = 2\npatience = 1\nwarmup_epochs = 1\n"
            "val_fraction = 0\n"
            "[model]\nchannels = 2,2,2,2,2\nkernels = 4,4,4,4,4\nprojection_dim = 8\n"
        )
        assert cli.main(["--quiet", "synth", "--out", str(raw), "--seed", "4", "--n-recordings", "2"]) == 0
        assert cli.main(["--quiet", "prepare", "--manifest", str(raw / "manifest.tsv"),
                         "--out", str(stores)]) == 0
        capsys.readouterr()
        assert cli.main(["--quiet", "pretrain", "--config", str(cfg), "--windows", str(stores),
                         "--datasets", "synthetic", "--policy", "none|inv",
                         "--out", str(tmp_path / "enc.ckpt")]) == 0

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        printed = json.loads(capsys.readouterr().out.splitlines()[-1], parse_constant=reject)
        assert printed["best_val_loss"] is None
        _, meta = load_checkpoint(tmp_path / "enc.ckpt")
        assert meta["extra"]["best_val_loss"] is None

    def test_json_logs_escape_quotes_and_backslashes(self, tmp_path, capsys):
        out = tmp_path / 'raw"q\\b'
        assert cli.main([
            "--json-logs", "synth", "--out", str(out), "--n-recordings", "2",
        ]) == 0
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines
        records = [json.loads(line) for line in lines]
        assert any(str(out) in r["msg"] for r in records)
        assert all(r["level"] == "INFO" for r in records)
