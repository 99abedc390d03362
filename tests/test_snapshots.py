import struct

import numpy as np
import pytest

from nldd.evolution import TrajectoryStore
from nldd.fields import ScalarField, make_grid
from nldd.snapshots import (
    FIELD_MAGIC,
    SnapshotFormatError,
    load_field,
    load_kernel_estimate,
    load_trajectory,
    save_field,
    save_kernel_estimate,
    save_trajectory,
)


@pytest.fixture
def field():
    g = make_grid(2, 16, 4.0)
    rng = np.random.default_rng(11)
    return ScalarField(g, rng.standard_normal(g.shape), time=0.375)


class TestFieldRoundtrip:
    def test_bitwise_identity(self, field, tmp_path):
        p = tmp_path / "f.nldd"
        save_field(field, 0.5, p)
        back, s = load_field(p)
        assert s == 0.5
        assert back.time == field.time
        assert back.grid == field.grid
        assert np.array_equal(back.values, field.values)  # no tolerance

    def test_three_d(self, tmp_path):
        g = make_grid(3, 8, 2.0)
        f = ScalarField(g, np.arange(512, dtype=float), time=1.5)
        p = tmp_path / "f.nldd"
        save_field(f, 0.75, p)
        back, s = load_field(p)
        assert np.array_equal(back.values, f.values)
        assert s == 0.75

    def test_deterministic_bytes(self, field, tmp_path):
        p1, p2 = tmp_path / "a", tmp_path / "b"
        save_field(field, 0.5, p1)
        save_field(field, 0.5, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorruption:
    def test_bad_magic(self, field, tmp_path):
        p = tmp_path / "f.nldd"
        save_field(field, 0.5, p)
        data = bytearray(p.read_bytes())
        data[:4] = b"XXXX"
        p.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_field(p)

    def test_future_major_version(self, field, tmp_path):
        p = tmp_path / "f.nldd"
        save_field(field, 0.5, p)
        data = bytearray(p.read_bytes())
        struct.pack_into("<I", data, 4, 2 << 16)
        p.write_bytes(bytes(data))
        with pytest.raises(SnapshotFormatError, match="version"):
            load_field(p)

    def test_minor_version_bump_accepted(self, field, tmp_path):
        p = tmp_path / "f.nldd"
        save_field(field, 0.5, p)
        data = bytearray(p.read_bytes())
        struct.pack_into("<I", data, 4, (1 << 16) | 7)
        p.write_bytes(bytes(data))
        back, _ = load_field(p)
        assert np.array_equal(back.values, field.values)

    def test_truncated_payload(self, field, tmp_path):
        p = tmp_path / "f.nldd"
        save_field(field, 0.5, p)
        p.write_bytes(p.read_bytes()[:-16])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_field(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "f.nldd"
        p.write_bytes(FIELD_MAGIC)
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_field(p)


    def test_trajectory_cut_in_its_count_word(self, field, tmp_path):
        traj = TrajectoryStore(field.grid)
        traj.append(field)
        p = tmp_path / "t.nldt"
        save_trajectory(traj, 0.5, p)
        p.write_bytes(p.read_bytes()[:10])  # magic, version, half the count
        with pytest.raises(SnapshotFormatError, match="^truncated header$"):
            load_trajectory(p)

    @pytest.mark.parametrize("cut", [8, 12, 20, 28], ids=["version", "d", "eta", "y"])
    def test_kernel_cut_in_its_header(self, field, tmp_path, cut):
        from nldd.heatkernel import HeatKernelEstimate

        est = HeatKernelEstimate(
            grid=field.grid, eta=0.125, y=(1.0, 2.5), times=np.array([field.time]),
            fields=[field], kernel=None,
        )
        p = tmp_path / "k.nldk"
        save_kernel_estimate(est, p)
        p.write_bytes(p.read_bytes()[:cut])  # cut after the named word
        with pytest.raises(SnapshotFormatError, match="^truncated header$"):
            load_kernel_estimate(p)


class TestTrajectory:
    def test_roundtrip(self, tmp_path):
        g = make_grid(2, 8, 1.0)
        traj = TrajectoryStore(g)
        rng = np.random.default_rng(0)
        for t in (0.0, 0.1, 0.2):
            traj.append(ScalarField(g, rng.standard_normal(g.shape), time=t))
        p = tmp_path / "t.nldt"
        save_trajectory(traj, 0.25, p)
        back, s = load_trajectory(p)
        assert s == 0.25
        np.testing.assert_array_equal(back.times, traj.times)
        for a, b in zip(back.snapshots, traj.snapshots):
            assert np.array_equal(a.values, b.values)

    def test_empty_rejected(self, tmp_path):
        g = make_grid(2, 8, 1.0)
        p = tmp_path / "t.nldt"
        save_trajectory(TrajectoryStore(g), 0.5, p)
        with pytest.raises(SnapshotFormatError):
            load_trajectory(p)


class TestKernelEstimate:
    def test_roundtrip(self, tmp_path):
        from nldd.heatkernel import HeatKernelEstimate
        from nldd.operators import KernelSpec

        g = make_grid(2, 16, 4.0)
        rng = np.random.default_rng(5)
        times = np.array([0.5, 1.0])
        fields = [
            ScalarField(g, rng.standard_normal(g.shape), time=t) for t in times
        ]
        est = HeatKernelEstimate(
            grid=g, eta=0.125, y=(1.0, 2.5), times=times, fields=fields,
            kernel=KernelSpec(s=0.5),
        )
        p = tmp_path / "k.nldk"
        save_kernel_estimate(est, p)
        back = load_kernel_estimate(p)
        assert back.eta == 0.125
        assert back.y == (1.0, 2.5)
        np.testing.assert_array_equal(back.times, times)
        assert back.kernel == KernelSpec(s=0.5)
        for a, b in zip(back.fields, fields):
            assert np.array_equal(a.values, b.values)
