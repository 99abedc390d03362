import numpy as np
import pytest

from nldd.config import (
    ConfigError,
    ExperimentConfig,
    lacunary_drift,
    load_config,
    shear_drift,
)
from nldd.fields import grid_coordinates, make_grid


def write(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    return p


class TestLoad:
    def test_defaults_from_empty_file(self, tmp_path):
        cfg = load_config(write(tmp_path, ""))
        g = cfg.build_grid()
        assert g.d == 2 and g.n == 64
        assert cfg.build_kernel().s == 0.5
        assert cfg.build_drift(g) is None
        assert cfg.build_measure(g) is None
        assert cfg.seed == 0

    def test_yaml_error_has_location(self, tmp_path):
        p = write(tmp_path, "grid: {d: 2\n  n: 64\n")
        with pytest.raises(ConfigError, match="line"):
            load_config(p)

    def test_non_mapping_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mapping"):
            load_config(write(tmp_path, "- 1\n- 2\n"))

    def test_section_that_is_not_a_mapping_names_it(self, tmp_path):
        cfg = load_config(write(tmp_path, "solver: 0.01\n"))
        with pytest.raises(ConfigError, match=r"'solver': must be a mapping, got 0\.01"):
            cfg.build_solver(cfg.build_kernel())

    def test_numbers_read_as_their_field_types(self, tmp_path):
        # PyYAML reads 1e-3 as a string, and 64.0 is a whole number
        cfg = load_config(write(
            tmp_path,
            "grid: {n: 64.0, domain_length: 8}\n"
            "solver: {dt: 1e-3, t_end: 1, snapshot_stride: 2.0}\n"
            "verification: {params: {holder: {slanted: true}, potential: {R: 1}}}\n",
        ))
        g = cfg.build_grid()
        assert (g.n, g.domain_length) == (64, 8.0) and type(g.n) is int
        sc = cfg.build_solver(cfg.build_kernel())
        assert (sc.dt, sc.t_end, sc.snapshot_stride) == (1e-3, 1.0, 2)
        assert type(sc.t_end) is float and type(sc.snapshot_stride) is int
        assert cfg.params("holder") == {"slanted": True}
        assert cfg.params("potential") == {"R": 1.0}

    def test_missing_required_field_names_path(self, tmp_path):
        cfg = load_config(write(tmp_path, "drift: {family: constant}\n"))
        with pytest.raises(ConfigError, match="drift.vector"):
            cfg.build_drift(cfg.build_grid())


class TestDriftFamilies:
    def test_constant(self):
        cfg = ExperimentConfig({"drift": {"family": "constant", "vector": [1.5, -0.5]}})
        b = cfg.build_drift(make_grid(2, 16, 4.0))
        assert b.components[0].values.max() == 1.5
        assert b.components[1].values.min() == -0.5

    def test_constant_wrong_arity(self):
        cfg = ExperimentConfig({"drift": {"family": "constant", "vector": [1.0]}})
        with pytest.raises(ConfigError):
            cfg.build_drift(make_grid(2, 16, 4.0))

    def test_shear_profile(self):
        g = make_grid(2, 32, 2 * np.pi)
        b = shear_drift(g, amplitude=2.0, wavenumber=3)
        xs = grid_coordinates(g)
        np.testing.assert_allclose(b.components[0].values, 2.0 * np.cos(3 * xs[1]))
        assert np.all(b.components[1].values == 0.0)

    def test_lacunary_profile(self):
        g = make_grid(2, 64, 2 * np.pi)
        b = lacunary_drift(g, [0.5, 0.25])
        xs = grid_coordinates(g)
        expected = 0.5 * np.cos(2 * xs[1]) + 0.25 * np.cos(4 * xs[1])
        np.testing.assert_allclose(b.components[0].values, expected, atol=1e-12)

    def test_sqg_and_none_build_no_field(self):
        g = make_grid(2, 16, 4.0)
        assert ExperimentConfig({"drift": {"family": "sqg"}}).build_drift(g) is None
        assert ExperimentConfig({}).build_drift(g) is None

    def test_unknown_family(self):
        cfg = ExperimentConfig({"drift": {"family": "vortex"}})
        with pytest.raises(ConfigError, match="family"):
            cfg.build_drift(make_grid(2, 16, 4.0))

    def test_sqg_sets_solver_mode(self):
        cfg = ExperimentConfig({"drift": {"family": "sqg"}})
        assert cfg.build_solver(cfg.build_kernel()).drift_mode == "sqg"
        cfg2 = ExperimentConfig({"drift": {"family": "shear"}})
        assert cfg2.build_solver(cfg2.build_kernel()).drift_mode == "given"


class TestInitial:
    def test_eigenmode(self):
        cfg = ExperimentConfig(
            {"initial": {"kind": "eigenmode",
                         "modes": [{"axis": 0, "wavenumber": 2, "amplitude": 3.0}]}}
        )
        g = make_grid(2, 32, 2 * np.pi)
        u = cfg.build_initial(g)
        xs = grid_coordinates(g)
        np.testing.assert_allclose(u.values, 3.0 * np.sin(2 * xs[0]), atol=1e-12)

    def test_random_deterministic_and_normalized(self):
        raw = {"seed": 9, "initial": {"kind": "random", "amplitude": 0.7, "decay": 2.0}}
        g = make_grid(2, 32, 4.0)
        u1 = ExperimentConfig(dict(raw)).build_initial(g)
        u2 = ExperimentConfig(dict(raw)).build_initial(g)
        assert np.array_equal(u1.values, u2.values)
        assert np.abs(u1.values).max() == pytest.approx(0.7)
        u3 = ExperimentConfig({**raw, "seed": 10}).build_initial(g)
        assert not np.array_equal(u1.values, u3.values)

    def test_unknown_kind(self):
        cfg = ExperimentConfig({"initial": {"kind": "blob"}})
        with pytest.raises(ConfigError):
            cfg.build_initial(make_grid(2, 16, 4.0))


class TestMeasure:
    def test_atoms(self):
        cfg = ExperimentConfig(
            {"measure": {"atoms": [{"t": 0.5, "x": [1.0, 2.0], "mass": 3.0}]}}
        )
        mu = cfg.build_measure(make_grid(2, 16, 4.0))
        assert mu.num_atoms == 1
        assert mu.atom_masses.tolist() == [3.0]
        assert mu.atom_times.tolist() == [0.5]
        assert mu.atom_positions.tolist() == [[1.0, 2.0]]
        assert mu.domain_length == 4.0

    @pytest.mark.parametrize("x", [[1.0], [1.0, 2.0, 3.0], 1.0], ids=["short", "long", "scalar"])
    def test_atom_coordinates_must_match_the_dimension(self, x):
        cfg = ExperimentConfig(
            {"measure": {"atoms": [{"t": 0.5, "x": [1.0, 2.0], "mass": 1.0},
                                   {"t": 0.5, "x": x, "mass": 1.0}]}}
        )
        k = len(np.atleast_1d(x))
        with pytest.raises(ConfigError, match=rf"'measure\.atoms\[1\]\.x'.*got {k}$"):
            cfg.build_measure(make_grid(2, 16, 4.0))

    def test_uniform_density(self):
        cfg = ExperimentConfig(
            {"measure": {"density": {"kind": "uniform", "level": 2.0,
                                     "t_start": 0.0, "t_end": 1.0}}}
        )
        g = make_grid(2, 16, 4.0)
        mu = cfg.build_measure(g)
        assert mu.num_atoms == 0
        # one profile on [t_start, t_end]
        assert (mu.density.t_start, mu.density.t_end) == (0.0, 1.0)
        np.testing.assert_array_equal(mu.density.profile, np.full(g.shape, 2.0))

    def test_inverse_power_density_peaks_at_center(self):
        g = make_grid(2, 32, 4.0)
        cfg = ExperimentConfig(
            {"measure": {"density": {"kind": "inverse_power", "exponent": 1.0,
                                     "center": [2.0, 2.0], "t_end": 1.0}}}
        )
        mu = cfg.build_measure(g)
        vals = mu.density.profile
        assert vals[16, 16] == vals.max()
        # capped at spacing^-1, not infinite
        assert np.isfinite(vals).all()

    def test_bad_time_window(self):
        cfg = ExperimentConfig(
            {"measure": {"density": {"kind": "uniform", "t_start": 1.0, "t_end": 0.5}}}
        )
        with pytest.raises(ConfigError, match="t_end"):
            cfg.build_measure(make_grid(2, 16, 4.0))


class TestVerificationSection:
    def test_selection_ceiling_params(self):
        cfg = ExperimentConfig(
            {"verification": {"selection": ["excess", "bmo"],
                              "ceilings": {"excess-decay": 7.5},
                              "params": {"excess": {"m_max": 2}}}}
        )
        assert cfg.selection == ["excess", "bmo"]
        # a check's report comes under the ceiling of its inequality id
        excess = cfg.report("excess")
        assert (excess.inequality_id, excess.ceiling, excess.rows) == ("excess-decay", 7.5, [])
        assert cfg.report("bmo").ceiling == np.inf
        assert cfg.params("excess") == {"m_max": 2}
        assert cfg.params("holder") == {}

    @pytest.mark.parametrize(
        "verification, path",
        [
            ({"ceilings": None, "params": None}, "verification.ceilings"),
            ({"ceilings": 3.0}, "verification.ceilings"),
        ],
    )
    def test_bad_ceilings_named(self, verification, path):
        cfg = ExperimentConfig({"verification": verification})
        with pytest.raises(ConfigError, match=rf"^config field '{path}': "):
            cfg.report("excess")

    @pytest.mark.parametrize(
        "params, path",
        [
            (None, "verification.params"),
            ("m_max", "verification.params"),
            ({"excess": None}, "verification.params.excess"),
            ({"excess": [2]}, "verification.params.excess"),
        ],
    )
    def test_bad_params_named(self, params, path):
        cfg = ExperimentConfig({"verification": {"params": params}})
        with pytest.raises(ConfigError, match=rf"^config field '{path}': "):
            cfg.params("excess")

    def test_solver_overrides(self):
        cfg = ExperimentConfig({"solver": {"dt": 0.01, "t_end": 2.0}})
        sc = cfg.build_solver(cfg.build_kernel(), t_end=0.5)
        assert sc.dt == 0.01
        assert sc.t_end == 0.5

    def test_undealiased_solver_rejected(self):
        cfg = ExperimentConfig({"solver": {"dealias": False}})
        with pytest.raises(ConfigError, match="'solver.dealias'"):
            cfg.build_solver(cfg.build_kernel())

    @pytest.mark.parametrize(
        "section,key,value",
        [("kernel", "lam", 2.0), ("solver", "dealias", True), ("solver", "store_drift", True)],
        ids=["kernel.lam", "solver.dealias", "solver.store_drift"],
    )
    def test_retired_fields_are_unknown(self, section, key, value):
        # fields that no run read are refused like any unknown field
        cfg = ExperimentConfig({section: {key: value}})
        with pytest.raises(ConfigError, match=rf"^config field '{section}\.{key}': unknown field"):
            cfg.section(section)
