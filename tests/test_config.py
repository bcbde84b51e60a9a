import dataclasses
import json
import math
import re

import numpy as np
import pytest

from qosf import config as config_mod
from qosf.config import (
    ConfigError,
    SubcarrierMultipleError,
    SystemConfig,
    config_from_dict,
    config_to_dict,
    load_config,
)


def test_default_layout():
    cfg = SystemConfig()
    assert cfg.num_tx == 2 and cfg.num_rx == 1
    assert cfg.pl == 4
    assert cfg.group_span == 4
    assert cfg.num_groups == 32
    assert cfg.symbols_per_group == 8
    assert cfg.subcarrier_spacing_hz == pytest.approx(7812.5)
    assert cfg.sample_period_s == pytest.approx(1e-6)
    assert cfg.rotation_angles == (np.pi / 4, np.pi / 2, 3 * np.pi / 4)


def test_default_profile_fits_prefix():
    cfg = SystemConfig()
    # 20 us delay spread against a 21-sample prefix at 1 us per sample.
    assert max(max(d) for d in cfg.delays_s) <= cfg.cp_len * cfg.sample_period_s


def test_frozen():
    cfg = SystemConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.num_states = 3


def test_single_profile_broadcasts_to_all_states():
    cfg = SystemConfig(delays_s=(0.0, 1e-5), path_powers=(0.6, 0.4))
    assert cfg.delays_s == ((0.0, 1e-5), (0.0, 1e-5))
    assert cfg.path_powers == ((0.6, 0.4), (0.6, 0.4))


def test_rejects_non_multiple_subcarriers():
    with pytest.raises(SubcarrierMultipleError):
        SystemConfig(num_subcarriers=126)


def test_rejects_non_power_of_two_pl():
    with pytest.raises(ConfigError, match="power of two"):
        SystemConfig(
            num_states=3,
            num_subcarriers=12,
            delays_s=((0.0, 2e-5),) * 3,
            path_powers=((0.5, 0.5),) * 3,
            rotation_angles=(0.1,) * 5,
        )


def test_rejects_wrong_angle_count():
    with pytest.raises(ConfigError, match="rotation angles"):
        SystemConfig(rotation_angles=(np.pi / 4, np.pi / 2))


def test_rejects_angle_outside_range():
    with pytest.raises(ConfigError):
        SystemConfig(rotation_angles=(np.pi / 4, np.pi / 2, 2 * np.pi))


def test_rejects_unnormalized_powers():
    with pytest.raises(ConfigError, match="sum to 1"):
        SystemConfig(path_powers=(0.5, 0.6))


def test_rejects_delay_beyond_prefix():
    with pytest.raises(ConfigError, match="cyclic prefix"):
        SystemConfig(delays_s=(0.0, 2.2e-5))


def test_rejects_decreasing_delays():
    with pytest.raises(ConfigError, match="non-decreasing"):
        SystemConfig(delays_s=(2e-5, 0.0))


def test_rejects_wrong_tx_count():
    with pytest.raises(ConfigError, match="num_tx"):
        SystemConfig(num_tx=4)


def test_rejects_bad_constellation():
    with pytest.raises(ValueError):
        SystemConfig(constellation="16qam")


@pytest.mark.parametrize("changes,message", [
    (dict(cp_len=-1), "cp_len must be non-negative"),
    (dict(symbol_duration_s=0.0), "symbol_duration_s must be positive"),
    (dict(symbol_duration_s=-128e-6), "symbol_duration_s must be positive"),
    (dict(master_seed=2**64), "master_seed must fit in an unsigned 64-bit integer"),
    (dict(master_seed=-1), "master_seed must fit in an unsigned 64-bit integer"),
    (dict(delays_s=((0.0, 2e-5), (0.0,))), "state 1: expected 2 delays and path powers"),
    (dict(delays_s=(-1e-6, 2e-5)), "state 0: delays must be non-negative"),
    (dict(path_powers=((0.5, 0.5), (0.0, 1.0))), "state 1: path powers must be positive"),
    (dict(path_powers=((0.5, 0.5),) * 3), "path_powers must have one entry per radiation state"),
])
def test_rejects_out_of_range_value(changes, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SystemConfig(**changes)


@pytest.mark.parametrize("num_states,message", [
    (10**6, "num_states * code_paths must be a power of two, got 2000000"),
    (2**20, "expected 2097151 rotation angles, got 3"),
    (10**9, "num_states * code_paths must be a power of two, got 2000000000"),
])
def test_num_states_is_checked_before_the_per_state_lists(monkeypatch, num_states, message):
    # A flat delay or power list is copied once per state, so a huge
    # num_states must be refused before the lists are expanded.
    def expand(*args):
        raise AssertionError("per-state lists expanded")

    monkeypatch.setattr(config_mod, "_per_state", expand)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SystemConfig(num_states=num_states, delays_s=(0.0, 2e-5), path_powers=(0.5, 0.5))


def test_dict_round_trip():
    cfg = SystemConfig(num_subcarriers=64, master_seed=9)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_config_from_dict_rejects_unknown_key():
    data = config_to_dict(SystemConfig())
    data["bandwidth"] = 1e6
    with pytest.raises(ConfigError, match="bandwidth"):
        config_from_dict(data)


def test_load_config_file(tmp_path):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"num_subcarriers": 16, "master_seed": 5}))
    cfg = load_config(path)
    assert cfg.num_subcarriers == 16
    assert cfg.master_seed == 5
    # Unspecified fields keep their defaults.
    assert cfg.rotation_angles == SystemConfig().rotation_angles


@pytest.mark.parametrize("text,message", [
    ('{"num_subcarriers": 16', "not valid JSON"),
    ("[1, 2]", "config file must contain a JSON object"),
])
def test_load_config_rejects_a_file_that_is_not_a_json_object(tmp_path, text, message):
    path = tmp_path / "system.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_angles_accept_plain_floats():
    cfg = SystemConfig(rotation_angles=[0.1, 0.2, 0.3])
    assert cfg.rotation_angles == (0.1, 0.2, 0.3)
    assert isinstance(cfg.rotation_angles, tuple)


def test_code_paths_defaults_to_num_paths():
    data = config_to_dict(SystemConfig())
    assert data["code_paths"] == 2
    del data["code_paths"]
    assert config_from_dict(data).code_paths == 2
    assert SystemConfig(
        num_paths=3, num_subcarriers=96, delays_s=(0.0, 5e-6, 1e-5),
        path_powers=(0.5, 0.25, 0.25), code_paths=2,
    ).code_paths == 2


def test_code_depth_sets_layout_channel_keeps_taps():
    # Depth one over the two-tap channel: one Alamouti block per tone pair.
    cfg = SystemConfig(num_states=1, code_paths=1, rotation_angles=(),
                       delays_s=(0.0, 2e-5), path_powers=(0.5, 0.5))
    assert cfg.num_paths == 2 and len(cfg.delays_s[0]) == 2
    assert (cfg.pl, cfg.group_span, cfg.num_groups, cfg.symbols_per_group) == (1, 2, 64, 2)
    with pytest.raises(ConfigError, match="rotation angles"):
        dataclasses.replace(cfg, rotation_angles=(0.0,))
    with pytest.raises(SubcarrierMultipleError, match="code_paths"):
        dataclasses.replace(cfg, num_subcarriers=127)


@pytest.mark.parametrize("code_paths", [0, 3])
def test_rejects_code_paths_outside_tap_count(code_paths):
    with pytest.raises(ConfigError, match="code_paths"):
        SystemConfig(code_paths=code_paths)


def test_integer_fields_accept_numpy_integers():
    cfg = SystemConfig(num_rx=np.int64(2), master_seed=np.uint64(7))
    assert type(cfg.num_rx) is int and type(cfg.master_seed) is int
    assert json.loads(json.dumps(config_to_dict(cfg)))["master_seed"] == 7
