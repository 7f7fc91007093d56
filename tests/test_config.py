import copy
import json
import re

import pytest

from platedamp import ConfigError, DomainError, GridSpec, parse_config, reference_config
from platedamp.config import parse_config_dict, to_dict


@pytest.fixture()
def ref_dict(ref_config):
    return to_dict(ref_config)


def _connected_series_rl(d):
    d["topology"] = {"mode": "connected",
                     "load": {"kind": "series_rl", "ohms": 120.0, "henries": 0.35}}


def _open_short_resistor_band(d):
    d["topology"]["loads"] = [{"kind": "open"}, {"kind": "short"},
                              {"kind": "resistor", "ohms": 2.2e4}]
    d["sweep"]["band_hz"] = [40.0, 70.0]


def _no_sweep_no_notes(d):
    del d["sweep"]
    del d["notes"]


VARIANTS = {
    "reference": lambda d: None,
    "connected_series_rl": _connected_series_rl,
    "open_short_resistor_band": _open_short_resistor_band,
    "no_sweep_no_notes": _no_sweep_no_notes,
}


class TestReference:
    def test_reference_parses(self, ref_config):
        assert len(ref_config.patches) == 3
        assert ref_config.topology.mode == "separated"
        assert ref_config.grid.count == 3000
        assert ref_config.sweep is not None

    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_round_trip_is_identity(self, ref_config, ref_dict, variant):
        VARIANTS[variant](ref_dict)
        again = parse_config_dict(ref_dict)
        if variant == "reference":
            assert again == ref_config
        assert to_dict(again) == ref_dict
        assert parse_config_dict(to_dict(again)) == again

    def test_file_round_trip(self, ref_config, ref_dict, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(ref_dict))
        assert parse_config(path) == ref_config


class TestStrictness:
    def test_unknown_top_level_key(self, ref_dict):
        ref_dict["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            parse_config_dict(ref_dict)

    def test_unknown_plate_key(self, ref_dict):
        ref_dict["plate"]["color"] = "blue"
        with pytest.raises(ConfigError, match="plate.color"):
            parse_config_dict(ref_dict)

    def test_missing_field_named(self, ref_dict):
        del ref_dict["plate"]["thickness_m"]
        with pytest.raises(ConfigError, match="plate.thickness_m"):
            parse_config_dict(ref_dict)

    def test_non_numeric_field_named(self, ref_dict):
        ref_dict["grid"]["start_hz"] = "one"
        with pytest.raises(ConfigError, match="grid.start_hz"):
            parse_config_dict(ref_dict)

    def test_notes_must_be_string(self, ref_dict):
        ref_dict["notes"] = 3
        with pytest.raises(ConfigError, match="notes"):
            parse_config_dict(ref_dict)

    @pytest.mark.parametrize("mutate, match", [
        (lambda d: d.update(grid=[1.0, 2.0]), "section 'grid' must be a JSON object"),
        (lambda d: d.update(patches={}), "section 'patches' must be a list"),
        (lambda d: d["grid"].update(start_hz=d["grid"]["stop_hz"]),
         "grid: grid requires 0 < start_hz < stop_hz"),
        (lambda d: d["sweep"].update(band_hz=[40.0]), r"'sweep.band_hz' must be \[lo, hi\]"),
        (lambda d: d["topology"].pop("mode"), "'topology' must be an object with a 'mode'"),
        (lambda d: d["topology"].update(mode="parallel"), "must be 'separated' or 'connected'"),
        (lambda d: d["topology"].update(loads={"kind": "open"}),
         "'topology.loads' must be a list"),
        (lambda d: d["topology"].update(loads=[{"ohms": 1.0}] * 3),
         r"'topology.loads\[0\]' must be an object with a 'kind'"),
        (lambda d: d.update(patches=[], topology={"mode": "connected",
                                                  "load": {"kind": "open"}}),
         "connected topology requires at least one patch"),
    ], ids=["section_not_object", "patches_not_list", "grid_start_not_below_stop",
            "band_not_a_pair", "topology_without_mode", "unknown_mode", "loads_not_list",
            "load_without_kind", "connected_without_patches"])
    def test_malformed_section_named(self, ref_dict, mutate, match):
        mutate(ref_dict)
        with pytest.raises(ConfigError, match=match):
            parse_config_dict(ref_dict)


# section as named in errors -> (the section in the reference dict, a key
# of it); every sweep key has a default, so sweep has no missing-key case
SECTIONS = {
    "plate": (lambda d: d["plate"], "thickness_m"),
    "patches[1]": (lambda d: d["patches"][1], "x2_m"),
    "force": (lambda d: d["force"], "amplitude_n"),
    "target": (lambda d: d["target"], "y_m"),
    "grid": (lambda d: d["grid"], "count"),
    "basis": (lambda d: d["basis"], "n_y"),
    "sweep": (lambda d: d["sweep"], "points"),
    "topology.loads[1]": (lambda d: d["topology"]["loads"][1], "ohms"),
}
FAULT_CASES = [(name, fault) for name in SECTIONS
               for fault in ("wrong_type", "missing", "unknown")
               if (name, fault) != ("sweep", "missing")]


class TestErrorsNameTheKey:
    @pytest.mark.parametrize("section, fault", FAULT_CASES)
    def test_error_names_section_key(self, ref_dict, section, fault):
        get, key = SECTIONS[section]
        part = get(ref_dict)
        if fault == "wrong_type":
            part[key] = "one"
        elif fault == "missing":
            del part[key]
        else:
            key = "colour"
            part[key] = 1
        with pytest.raises(ConfigError, match=re.escape(f"'{section}.{key}'")):
            parse_config_dict(ref_dict)


class TestGeometryChecks:
    def test_patch_exceeding_plate_names_index(self, ref_dict):
        ref_dict["patches"][1]["x2_m"] = 0.6
        with pytest.raises(ConfigError, match="patch 1"):
            parse_config_dict(ref_dict)

    def test_overlapping_patches_rejected(self, ref_dict):
        ref_dict["patches"][1] = copy.deepcopy(ref_dict["patches"][0])
        with pytest.raises(ConfigError, match="overlap"):
            parse_config_dict(ref_dict)

    def test_force_outside_plate(self, ref_dict):
        ref_dict["force"]["x_m"] = 0.55
        with pytest.raises(ConfigError, match="force"):
            parse_config_dict(ref_dict)

    def test_target_outside_plate(self, ref_dict):
        ref_dict["target"]["y_m"] = -0.01
        with pytest.raises(ConfigError, match="target"):
            parse_config_dict(ref_dict)

    @pytest.mark.parametrize("point", ["force", "target"])
    @pytest.mark.parametrize("key, edge", [("x_m", "x = 0"), ("x_m", "x = a"),
                                           ("y_m", "y = 0"), ("y_m", "y = b")])
    def test_point_on_a_clamped_edge(self, ref_dict, point, key, edge):
        """Every trial function vanishes on the clamped boundary, so a force
        or target there would give a response of rounding noise."""
        far = ref_dict["plate"]["length_a_m" if key == "x_m" else "width_b_m"]
        value = 0.0 if edge.endswith("0") else far
        ref_dict[point][key] = value
        with pytest.raises(ConfigError, match=rf"^{point} .*\) m lies on the clamped edge "
                                              rf"{key[0]} = {value:g} m"):
            parse_config_dict(ref_dict)

    def test_point_just_inside_an_edge_is_accepted(self, ref_dict):
        ref_dict["target"]["x_m"] = 1e-3
        ref_dict["force"]["y_m"] = ref_dict["plate"]["width_b_m"] - 1e-3
        parse_config_dict(ref_dict)


class TestPatchThickness:
    @pytest.mark.parametrize("thickness", [0.0, -2.67e-4])
    def test_non_positive_thickness_named(self, ref_dict, thickness):
        ref_dict["patches"][2]["thickness_m"] = thickness
        with pytest.raises(ConfigError, match=r"patches\[2\]\.thickness_m"):
            parse_config_dict(ref_dict)


class TestTopology:
    def test_load_count_mismatch(self, ref_dict):
        ref_dict["topology"]["loads"] = ref_dict["topology"]["loads"][:2]
        with pytest.raises(ConfigError, match="3 patches"):
            parse_config_dict(ref_dict)

    def test_connected_form(self, ref_dict):
        ref_dict["topology"] = {"mode": "connected",
                                "load": {"kind": "resistor", "ohms": 1e4}}
        cfg = parse_config_dict(ref_dict)
        assert cfg.topology.mode == "connected"
        assert cfg.topology.loads[0].ohms == 1e4

    def test_unknown_load_kind(self, ref_dict):
        ref_dict["topology"]["loads"][0] = {"kind": "capacitor", "ohms": 1.0}
        with pytest.raises(ConfigError, match="kind"):
            parse_config_dict(ref_dict)

    def test_open_and_short_loads(self, ref_dict):
        ref_dict["topology"]["loads"] = [{"kind": "open"}, {"kind": "short"},
                                         {"kind": "series_rl", "ohms": 10.0,
                                          "henries": 0.5}]
        cfg = parse_config_dict(ref_dict)
        kinds = [l.kind for l in cfg.topology.loads]
        assert kinds == ["open", "short", "series_rl"]


class TestOptionals:
    def test_sweep_optional(self, ref_dict):
        del ref_dict["sweep"]
        cfg = parse_config_dict(ref_dict)
        assert cfg.sweep is None

    def test_quadrature_order_defaults(self, ref_dict):
        del ref_dict["basis"]["quadrature_order"]
        cfg = parse_config_dict(ref_dict)
        assert cfg.basis.quadrature_order == 10

    def test_sweep_band_validated_against_grid(self, ref_dict):
        ref_dict["sweep"]["band_hz"] = [260.0, 300.0]
        with pytest.raises(ConfigError, match="band_hz"):
            parse_config_dict(ref_dict)

    @pytest.mark.parametrize("ohms", [0.0, -5.0])
    def test_sweep_r_min_must_be_positive(self, ref_dict, ohms):
        ref_dict["sweep"]["r_min_ohms"] = ohms
        with pytest.raises(ConfigError, match=r"sweep\.r_min_ohms' must be positive"):
            parse_config_dict(ref_dict)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_numbers_rejected(self, ref_dict, value):
        # json reads NaN and Infinity; a NaN e31 used to reach modes.csv
        ref_dict["patches"][0]["e31_c_m2"] = value
        with pytest.raises(ConfigError, match=r"patches\[0\]\.e31_c_m2' must be finite"):
            parse_config_dict(ref_dict)

    def test_grid_count_validated(self, ref_dict):
        ref_dict["grid"]["count"] = 1
        with pytest.raises(ConfigError, match="count"):
            parse_config_dict(ref_dict)
        with pytest.raises(DomainError, match="count"):
            GridSpec(1.0, 2.0, float("nan"))

    @pytest.mark.parametrize("args, match", [((1.0, float("inf"), 5), "stop_hz < inf"),
                                             ((1.0, 2.0, 2.5), "grid.count must be an integer")],
                             ids=["infinite_stop", "fractional_count"])
    def test_grid_spec_refuses_what_it_cannot_build(self, args, match):
        """An infinite stop gave a grid of [nan, inf, ...], a fractional
        count a TypeError inside numpy."""
        with pytest.raises(DomainError, match=match):
            GridSpec(*args)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            parse_config(path)

    def test_bundled_reference_is_stable(self):
        assert reference_config() == reference_config()
