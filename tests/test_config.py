"""Flat key-value configuration."""

import math
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from zetalab import (
    Config,
    DomainError,
    EvalSettings,
    ParseError,
    QuadratureSettings,
    ResourceLimitError,
    dump_config,
    load_config,
    parse_config,
)
from zetalab import cli
from zetalab.config import ENV_VAR

REMOVED_KEYS = [
    "euler_maclaurin_terms",
    "bernoulli_order",
    "divisor_table_size",
    "points_per_panel",
    "width_scale",
]


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
        # limit is a constant of the CLI; the panel rule is a constant of
        # the quadrature
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
            parse_config("target_abs_error = tiny\n")

    def test_out_of_range_value_is_domain_error(self):
        with pytest.raises(DomainError):
            parse_config("target_abs_error = 0.0\n")


class TestRoundTrip:
    def test_dump_then_parse_is_identity(self):
        cfg = Config(target_abs_error=1e-10, threads=3)
        assert parse_config(dump_config(cfg)) == cfg
        assert dump_config(Config()) == "target_abs_error = 1e-13\nthreads = 1\n"

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.integers(min_value=1, max_value=64),
    )
    def test_every_float_round_trips(self, target, threads):
        # 15 significant digits would lose 1.2345678901234567e-13
        cfg = Config(target_abs_error=target, threads=threads)
        assert parse_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("name", [f.name for f in fields(Config)])
    def test_every_field_round_trips(self, name):
        default = getattr(Config(), name)
        changed = default + 1 if isinstance(default, int) else default / 2
        cfg = replace(Config(), **{name: changed})
        parsed = parse_config(dump_config(cfg))
        assert parsed == cfg
        assert type(getattr(parsed, name)) is type(changed)

    def test_two_fields(self):
        assert [f.name for f in fields(Config)] == ["target_abs_error", "threads"]


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_abs_error": 0.0},
            {"target_abs_error": -1e-13},
            {"target_abs_error": math.nan},
            {"target_abs_error": -0.0},
            {"target_abs_error": -math.inf},
            {"threads": 0},
            {"threads": -1},
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
            replace(Config(), threads=100_000)

    def test_settings_projections(self):
        cfg = Config(threads=2, target_abs_error=1e-10)
        assert cfg.quadrature_settings() == QuadratureSettings(threads=2)
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
    """The global --threads flag over a config file's threads, as the
    config reaches a command."""

    @pytest.fixture
    def seen(self, tmp_path, monkeypatch):
        path = tmp_path / "lab.cfg"
        path.write_text("threads = 3\n")
        monkeypatch.setenv(ENV_VAR, str(path))
        configs = []

        def spy(args, config):
            configs.append(config)
            return 0

        monkeypatch.setattr(cli, "cmd_zeta_eval", spy)
        return configs

    def test_none_means_not_given(self, seen):
        assert cli.main(["zeta", "eval", "--sigma", "2"]) == 0
        assert cli.main(["--threads", "5", "zeta", "eval", "--sigma", "2"]) == 0
        assert [config.threads for config in seen] == [3, 5]

    def test_override_revalidates(self, seen, capsys):
        assert cli.main(["--threads", "0", "zeta", "eval", "--sigma", "2"]) == 3
        assert cli.main(["--threads", "100000", "zeta", "eval", "--sigma", "2"]) == 4
        assert seen == []
        assert capsys.readouterr().out == ""
