"""Tests for config parsing/hashing and the command-line interface."""

import json

import pytest

from cardioclr import cli
from cardioclr.config import (
    config_hash,
    parse_config_text,
    resolved_text,
)
from cardioclr.errors import ConfigError


class TestConfig:
    def test_empty_config_is_all_defaults(self):
        cfg = parse_config_text("")
        assert cfg.temperature == 0.1
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
        cfg = parse_config_text("[pretrain]\ntemperature = 0.2\n[model]\nchannels = 4,8\nkernels = 8,4\npool_widths = 10,10\n")
        text = resolved_text(cfg)
        again = parse_config_text(text)
        assert resolved_text(again) == text
        assert again == cfg

    def test_hash_stable_under_key_reordering(self):
        a = parse_config_text("[pretrain]\ntemperature = 0.2\nbatch_size = 64\n")
        b = parse_config_text("[pretrain]\nbatch_size = 64\ntemperature = 0.2\n")
        assert config_hash(a) == config_hash(b)
        c = parse_config_text("[pretrain]\nbatch_size = 65\ntemperature = 0.2\n")
        assert config_hash(a) != config_hash(c)

    def test_comments_ignored(self):
        cfg = parse_config_text("# top\n[run]\nseed = 9  # trailing\n")
        assert cfg.seed == 9


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

    def test_gradcheck_exits_0(self, capsys):
        assert cli.main(["gradcheck", "--trials", "1"]) == 0
        out = capsys.readouterr().out
        assert "max_rel_err" in out
        assert "overall" in out


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

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        class Args:
            config = None
            seed = None

        monkeypatch.setenv(cli.SEED_ENV, "123")
        cfg = cli._load_config(Args())
        assert cfg.seed == 123
        monkeypatch.delenv(cli.SEED_ENV)
        cfg = cli._load_config(Args())
        assert cfg.seed == 0
