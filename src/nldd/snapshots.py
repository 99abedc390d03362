"""Binary snapshot persistence.

Single field records start with magic ``NLDD``; a trajectory is a ``NLDT``
count header followed by concatenated field records; a kernel estimate is a
``NLDK`` source-point header followed by a trajectory payload.  All integers
are little-endian u32, all reals IEEE-754 binary64 little-endian, and field
samples are row-major.  The version word packs major in the high 16 bits.
"""

from __future__ import annotations

import struct

import numpy as np

from .evolution import TrajectoryStore
from .fields import ScalarField, make_grid
from .operators import KernelSpec

__all__ = [
    "SnapshotFormatError",
    "save_field",
    "load_field",
    "save_trajectory",
    "load_trajectory",
    "save_kernel_estimate",
    "load_kernel_estimate",
]

FIELD_MAGIC = b"NLDD"
TRAJECTORY_MAGIC = b"NLDT"
KERNEL_MAGIC = b"NLDK"
VERSION = 1 << 16  # major 1, minor 0


class SnapshotFormatError(ValueError):
    pass


def _unpack(fmt: str, buf: bytes, offset: int) -> tuple[tuple, int]:
    """The header values ``fmt`` reads at ``offset``, and the offset after them."""
    end = offset + struct.calcsize(fmt)
    if len(buf) < end:
        raise SnapshotFormatError("truncated header")
    return struct.unpack_from(fmt, buf, offset), end


def _check_header(buf: bytes, offset: int, magic: bytes) -> int:
    (got, version), offset = _unpack("<4sI", buf, offset)
    if got != magic:
        raise SnapshotFormatError(f"bad magic {got!r}, expected {magic!r}")
    if version >> 16 > VERSION >> 16:
        raise SnapshotFormatError(f"unsupported future major version {version >> 16}")
    return offset


def _pack_field(field: ScalarField, s: float) -> bytes:
    g = field.grid
    head = FIELD_MAGIC + struct.pack(
        "<IIIddd", VERSION, g.d, g.n, g.domain_length, s, field.time
    )
    return head + field.values.astype("<f8").tobytes(order="C")


def _read_field(buf: bytes, offset: int) -> tuple[ScalarField, float, int]:
    offset = _check_header(buf, offset, FIELD_MAGIC)
    (d, n, L, s, t), offset = _unpack("<IIddd", buf, offset)
    count = n**d
    payload = count * 8
    if len(buf) < offset + payload:
        raise SnapshotFormatError("truncated field payload")
    samples = np.frombuffer(buf, dtype="<f8", count=count, offset=offset)
    grid = make_grid(d=int(d), n=int(n), domain_length=float(L))
    field = ScalarField(grid, samples.reshape(grid.shape).copy(), float(t))
    return field, float(s), offset + payload


def save_field(field: ScalarField, s: float, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_pack_field(field, s))


def load_field(path) -> tuple[ScalarField, float]:
    with open(path, "rb") as fh:
        buf = fh.read()
    field, s, end = _read_field(buf, 0)
    return field, s


def _pack_trajectory(fields: list[ScalarField], s: float) -> bytes:
    head = TRAJECTORY_MAGIC + struct.pack("<II", VERSION, len(fields))
    return b"".join([head, *(_pack_field(field, s) for field in fields)])


def save_trajectory(traj: TrajectoryStore, s: float, path) -> None:
    with open(path, "wb") as fh:
        fh.write(_pack_trajectory(traj.snapshots, s))


def load_trajectory(path) -> tuple[TrajectoryStore, float]:
    with open(path, "rb") as fh:
        buf = fh.read()
    fields, s, _ = _read_trajectory(buf, 0)
    traj = TrajectoryStore(fields[0].grid)
    for f in fields:
        traj.append(f)
    return traj, s


def _read_trajectory(buf: bytes, offset: int) -> tuple[list[ScalarField], float, int]:
    offset = _check_header(buf, offset, TRAJECTORY_MAGIC)
    (count,), offset = _unpack("<I", buf, offset)
    if count == 0:
        raise SnapshotFormatError("trajectory with no snapshots")
    fields, s = [], 0.0
    for _ in range(count):
        field, s, offset = _read_field(buf, offset)
        fields.append(field)
    return fields, s, offset


def save_kernel_estimate(est, path) -> None:
    d = est.grid.d
    head = KERNEL_MAGIC + struct.pack(f"<IId{d}d", VERSION, d, est.eta, *est.y)
    s = est.kernel.s if est.kernel is not None else 0.0
    with open(path, "wb") as fh:
        fh.write(head + _pack_trajectory(est.fields, s))


def load_kernel_estimate(path):
    from .heatkernel import HeatKernelEstimate

    with open(path, "rb") as fh:
        buf = fh.read()
    offset = _check_header(buf, 0, KERNEL_MAGIC)
    (d, eta), offset = _unpack("<Id", buf, offset)
    y, offset = _unpack(f"<{d}d", buf, offset)
    fields, s, _ = _read_trajectory(buf, offset)
    return HeatKernelEstimate(
        grid=fields[0].grid,
        eta=float(eta),
        y=tuple(y),
        times=np.array([f.time for f in fields]),
        fields=fields,
        kernel=KernelSpec(s=s) if s > 0.0 else None,
    )
