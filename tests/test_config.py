"""Flat key-value configuration."""

import math
from dataclasses import fields, replace

import pytest

from zetalab import (
    Config,
    DomainError,
    EvalSettings,
    ParseError,
    ResourceLimitError,
    dump_config,
    load_config,
    parse_config,
)
from zetalab.config import ENV_VAR, override

REMOVED_KEYS = ["euler_maclaurin_terms", "bernoulli_order", "divisor_table_size"]


class TestParse:
    def test_defaults_from_empty_text(self):
        assert parse_config("") == Config()

    def test_comments_and_blanks(self):
        text = "# a comment\n\nthreads = 4   # trailing comment\n"
        assert parse_config(text).threads == 4

    def test_unknown_key_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config("threads = 2\nfrobnicate = 1\n")
        assert exc.value.position == 2
        assert "frobnicate" in str(exc.value)

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, key):
        # N and q are worked out from target_abs_error; the afe2 table
        # limit is a constant of the CLI
        with pytest.raises(ParseError) as exc:
            parse_config(f"threads = 2\n{key} = 12\n")
        assert exc.value.position == 2
        assert f"unknown config key {key!r}" in str(exc.value)

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_config("threads = 2\n# gap\nthreads = 3\n")
        assert exc.value.position == 3

    def test_missing_equals(self):
        with pytest.raises(ParseError) as exc:
            parse_config("threads\n")
        assert exc.value.position == 1

    def test_bad_int(self):
        with pytest.raises(ParseError):
            parse_config("threads = two\n")

    def test_bad_float(self):
        with pytest.raises(ParseError):
            parse_config("width_scale = wide\n")

    def test_out_of_range_value_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_config("width_scale = 2.0\n")


class TestRoundTrip:
    def test_dump_then_parse_is_identity(self):
        cfg = Config(
            target_abs_error=1e-10,
            points_per_panel=12,
            width_scale=0.375,
            threads=3,
            output_dir="out",
        )
        assert parse_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("name", [f.name for f in fields(Config)])
    def test_every_field_round_trips(self, name):
        default = getattr(Config(), name)
        if isinstance(default, str):
            changed = default + "_x"
        else:
            changed = default + 1 if isinstance(default, int) else default / 2
        cfg = replace(Config(), **{name: changed})
        parsed = parse_config(dump_config(cfg))
        assert parsed == cfg
        assert type(getattr(parsed, name)) is type(changed)

    def test_five_fields(self):
        assert [f.name for f in fields(Config)] == [
            "target_abs_error", "points_per_panel", "width_scale", "threads", "output_dir"
        ]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_abs_error": 0.0},
            {"target_abs_error": -1e-13},
            {"target_abs_error": math.nan},
            {"points_per_panel": 1},
            {"width_scale": 0.0},
            {"width_scale": math.nan},
            {"threads": 0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(DomainError):
            Config(**kwargs)

    def test_thread_cap(self):
        with pytest.raises(ResourceLimitError):
            Config(threads=100_000)
        with pytest.raises(ResourceLimitError):
            parse_config("threads = 100000\n")
        with pytest.raises(ResourceLimitError):
            override(Config(), threads=100_000)

    def test_settings_projections(self):
        cfg = Config(points_per_panel=8, width_scale=0.5, threads=2, target_abs_error=1e-10)
        assert cfg.quadrature_settings().points_per_panel == 8
        assert cfg.quadrature_settings().threads == 2
        assert cfg.eval_settings() == EvalSettings(target_abs_error=1e-10)


class TestLoad:
    def test_load_defaults_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert load_config() == Config()

    def test_load_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "lab.cfg"
        path.write_text("threads = 5\n")
        monkeypatch.setenv(ENV_VAR, str(path))
        assert load_config().threads == 5

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        a = tmp_path / "a.cfg"
        a.write_text("threads = 2\n")
        b = tmp_path / "b.cfg"
        b.write_text("threads = 9\n")
        monkeypatch.setenv(ENV_VAR, str(b))
        assert load_config(str(a)).threads == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_config(str(tmp_path / "absent.cfg"))


class TestOverride:
    def test_none_means_not_given(self):
        cfg = Config(threads=2)
        assert override(cfg, threads=None) is cfg
        assert override(cfg, threads=6).threads == 6

    def test_override_revalidates(self):
        with pytest.raises(DomainError):
            override(Config(), threads=0)
