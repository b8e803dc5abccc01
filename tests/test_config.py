"""INI configuration parsing, validation, defaulting, manifest round-trip."""

import configparser
from pathlib import Path

import pytest

from conekit.config import (ConfigError, RunConfig, default_config_text,
                            manifest_text, parse_config, validate_gamma)


def test_minimal_file_gets_documented_defaults():
    cfg = parse_config("[geometry]\nkind = sphere\n")
    assert cfg.geometry.kind == "sphere"
    assert cfg.geometry.M == 256
    assert cfg.geometry.q == 0.85
    assert cfg.geometry.K == 32
    assert cfg.dynamics.dt == 1e-3
    assert cfg.dynamics.S == 2.0
    assert cfg.dynamics.T_max == 1000.0
    assert cfg.dynamics.eq_tol == 1e-8
    assert cfg.dynamics.snapshot_stride == 100
    assert cfg.norms.gamma == -0.75
    assert cfg.experiment.seed == 0
    assert cfg.experiment.ic == "random_mean_zero"
    # the manifest echoes every default explicitly
    text = manifest_text(cfg, "norms", "2026-01-01T00:00:00")
    for needle in ("dt = 0.001", "S = 2", "K = 32", "gamma = -0.75",
                   "kind = sphere", "[meta]", "command = norms"):
        assert needle in text


def test_empty_text_is_the_default_config():
    assert parse_config("") == RunConfig()


def test_default_config_text_parses_back():
    text = default_config_text()
    for section in ("[geometry]", "[dynamics]", "[norms]", "[experiment]"):
        assert section in text
    assert parse_config(text) == RunConfig()


def test_gamma_inside_window_is_accepted():
    cfg = parse_config("[geometry]\nkind = cone_capped\nc = 1\n\n"
                       "[norms]\ngamma = -0.75\n")
    validate_gamma(cfg)  # must not raise


def test_gamma_outside_window_is_rejected_with_window_text():
    cfg = parse_config("[geometry]\nkind = cone_capped\nc = 1\n\n"
                       "[norms]\ngamma = 0\npairs = 0,-0.75;1,-0.75\n")
    with pytest.raises(ConfigError, match=r"\(-1, -0\.5\)"):
        validate_gamma(cfg)
    validate_gamma(cfg, allow_out_of_window=True)  # explicit override


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="'grading'"):
        parse_config("[geometry]\ngrading = 0.5\n")


def test_unknown_section_is_named():
    with pytest.raises(ConfigError, match=r"\[solver\]"):
        parse_config("[solver]\ntol = 1\n")


def test_keys_are_case_sensitive():
    with pytest.raises(ConfigError, match="'m'"):
        parse_config("[geometry]\nm = 64\n")


def test_bad_values_name_the_field():
    cases = (
        ("[geometry]\nM = abc\n", "M"),
        ("[geometry]\nkind = torus\n", "kind"),
        ("[geometry]\nq = 0\n", "q"),
        ("[geometry]\nkind = cone_capped\nc = 2\n", "c"),
        ("[dynamics]\ndt = -1\n", "dt"),
        ("[dynamics]\nS = -0.5\n", "S"),
        ("[dynamics]\nsnapshot_stride = 0\n", "snapshot_stride"),
        ("[norms]\npairs = 3,-0.75\n", "s"),
        ("[norms]\npairs = 1\n", "pairs"),
        ("[experiment]\nic = banana\n", "ic"),
        ("[experiment]\ndrop_last = 0.9\n", "drop_last"),
    )
    for text, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            parse_config(text)


def test_a_mean_zero_initial_field_takes_no_mean():
    with pytest.raises(ConfigError, match=r"\[experiment\] mean"):
        parse_config("[experiment]\nic = random_mean_zero\nmean = 0.3\n")
    for ic in ("random", "constant"):
        assert parse_config(f"[experiment]\nic = {ic}\nmean = 0.3\n").experiment.mean == 0.3


def test_manifest_roundtrip_preserves_overrides():
    cfg = parse_config(
        "[geometry]\nkind = cone_capped\nc = 1/2\nL = 3\nM = 64\nq = 0.8\nK = 4\n\n"
        "[dynamics]\ndt = 0.0005\neq_tol = 1e-09\nlinear_only = true\n\n"
        "[norms]\ngamma = -0.6\npairs = 0,-0.6;1,-0.55\n\n"
        "[experiment]\nseed = 9\namplitude = 0.75\nradii = 0.5,2\nmodes = 1,2,3\n")
    again = parse_config(manifest_text(cfg, "simulate", "2026-01-01T00:00:00"))
    assert again == cfg
    assert again.geometry.c == "1/2"
    assert again.norms.pairs == ((0, -0.6), (1, -0.55))
    assert again.experiment.modes == (1, 2, 3)


def test_manifests_differ_only_in_timestamp():
    cfg = parse_config("[geometry]\nkind = sphere\n")
    a = manifest_text(cfg, "spectrum", "2026-01-01T00:00:00")
    b = manifest_text(cfg, "spectrum", "2026-02-02T12:34:56")
    diff = [(la, lb) for la, lb in zip(a.splitlines(), b.splitlines()) if la != lb]
    assert len(diff) == 1 and diff[0][0].startswith("created")


def test_comments_and_meta_sections_are_ignored():
    cfg = parse_config("[meta]\ntool = whatever\n\n"
                       "[geometry]\nkind = sphere  # a comment\nM = 128\n")
    assert cfg.geometry.kind == "sphere"
    assert cfg.geometry.M == 128


def test_readme_configuration_block_lists_every_key_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]

    def keys(text):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        cp.optionxform = str
        cp.read_string(text)
        return {(section, key) for section in cp.sections() for key in cp[section]}

    assert keys(block) == keys(default_config_text())
    assert parse_config(block) == RunConfig()
