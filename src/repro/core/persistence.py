"""Saving and loading INFLEX indexes.

The expensive part of an index is the precomputed seed lists (hours of
influence maximization at paper scale), so those and the index points
are persisted in a compressed ``.npz`` archive together with the
configuration.  The bb-tree is *rebuilt* on load: construction is
``O(h log h)`` over only ``h`` points — negligible next to the seed
precomputation — and rebuilding from the stored seed keeps the archive
format free of recursive structures.

Two durability guarantees (format version 2, see
``docs/RESILIENCE.md``):

* **Atomic, durable writes** — :func:`save_index` writes to a
  temporary file in the target directory, ``fsync``\\ s it,
  ``os.replace``\\ s it into place, and ``fsync``\\ s the directory, so
  an interrupted save never clobbers the previous valid artifact *and*
  a power cut cannot roll the completed rename back out of the page
  cache.
* **Integrity checking** — every array's CRC32 is embedded in the
  archive and verified by :func:`load_index`, which raises
  :class:`~repro.errors.CorruptArtifactError` on any mismatch,
  truncation, or unreadable byte instead of ever returning silently
  wrong data.  Version-1 archives (pre-checksum) still load.
"""

from __future__ import annotations

import json
import os
import zlib
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.config import InflexConfig
from repro.core.index import InflexIndex
from repro.errors import CorruptArtifactError
from repro.graph.topic_graph import TopicGraph
from repro.im.seed_list import SeedList
from repro.obs import instruments as _obs
from repro.resilience.faults import InjectedFaultError, maybe_inject

_FORMAT_VERSION = 2

#: Exceptions numpy/zipfile/zlib raise on a damaged archive; all are
#: surfaced to callers as :class:`CorruptArtifactError`.
_READ_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    OSError,
    EOFError,
    ValueError,
    KeyError,
)


def _array_crc(array: np.ndarray) -> int:
    """CRC32 of an array's raw bytes (contiguous, machine-endian)."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes()) & 0xFFFFFFFF


def crc_of_bytes(data: bytes) -> int:
    """CRC32 of a byte string, masked to an unsigned 32-bit value.

    The shared integrity primitive of every persisted artifact in this
    package — index archives embed per-array values of it, and the
    streaming delta log (:class:`repro.streaming.DeltaLog`) stamps each
    record with one.
    """
    return zlib.crc32(data) & 0xFFFFFFFF


def _fsync_directory(directory: Path) -> None:
    """Flush a directory entry to stable storage (best effort).

    ``os.replace`` makes a rename atomic *in the filesystem's memory*;
    until the directory itself is fsynced, a power cut can roll the
    rename back and resurface the old file (or none).  Platforms that
    cannot open directories for syncing just skip this.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically **and durably**.

    The write-then-``os.replace`` dance used by :func:`save_index`,
    exposed for other artifact writers (builder state and checkpoints,
    delta logs): a crash mid-write leaves any existing file untouched,
    plus a ``*.tmp-<pid>`` remnant that is safe to delete.  The
    temporary file is ``fsync``\\ ed before the rename and the parent
    directory after it — without both, "atomic" only holds until the
    first power cut (the data, or the rename itself, could still be
    sitting in the page cache).
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    _fsync_directory(target.parent)


def atomic_write_text(path, text: str, *, encoding: str = "utf-8") -> None:
    """:func:`atomic_write_bytes` for text content (same durability)."""
    atomic_write_bytes(path, text.encode(encoding))


def save_index(index: InflexIndex, path, *, fault_plan=None) -> None:
    """Write ``index`` to ``path`` as a compressed ``.npz`` archive.

    The write is atomic: the archive is assembled in a same-directory
    temporary file and renamed over ``path`` only once fully written,
    so a crash mid-save leaves any existing artifact untouched (plus a
    ``*.tmp-<pid>`` remnant that is safe to delete).  Per-array CRC32
    checksums are embedded for :func:`load_index` to verify.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    seed_matrix = np.full(
        (index.num_index_points, index.config.seed_list_length),
        -1,
        dtype=np.int64,
    )
    gain_matrix = np.zeros_like(seed_matrix, dtype=np.float64)
    algorithms = []
    for row, seed_list in enumerate(index.seed_lists):
        nodes = seed_list.as_array()
        seed_matrix[row, : nodes.size] = nodes
        if seed_list.marginal_gains:
            gain_matrix[row, : nodes.size] = seed_list.marginal_gains
        algorithms.append(seed_list.algorithm)
    arrays = {
        "index_points": np.asarray(index.index_points),
        "seed_matrix": seed_matrix,
        "gain_matrix": gain_matrix,
        "algorithms": np.asarray(algorithms),
        "config_json": np.asarray(
            json.dumps(_config_to_dict(index.config))
        ),
    }
    integrity = {name: _array_crc(value) for name, value in arrays.items()}
    tmp = target.with_name(f"{target.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        np.savez_compressed(
            fh,
            format_version=np.int64(_FORMAT_VERSION),
            integrity_json=np.asarray(json.dumps(integrity)),
            **arrays,
        )
        fh.flush()
        os.fsync(fh.fileno())
    fired = maybe_inject("save-index", fault_plan)
    if fired is not None and fired.mode == "crash":
        # Chaos hook: simulate the process dying between the tmp write
        # and the rename — exactly what the atomicity guarantee is for.
        raise InjectedFaultError(
            f"simulated crash before renaming {tmp} over {target}"
        )
    os.replace(tmp, target)
    _fsync_directory(target.parent)


def load_index(path, graph: TopicGraph, *, fault_plan=None) -> InflexIndex:
    """Load an index written by :func:`save_index`.

    The social graph is not stored in the archive (it has its own
    persistence in :mod:`repro.graph.io`) and must be supplied.

    Raises
    ------
    CorruptArtifactError
        When the archive is truncated, unreadable, missing members, or
        fails its embedded CRC32 checksums.  A corrupt artifact is
        never silently decoded into wrong seed lists.
    ValueError
        When the archive is intact but written by a newer, unsupported
        format version.
    """
    source = Path(path)
    try:
        # np.load on a path leaves its own handle open when the zip
        # reader fails mid-open; this handle is closed on every path.
        with open(source, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as data:
            raw = {name: data[name] for name in data.files}
    except _READ_ERRORS as exc:
        _obs.record_corrupt_artifact("index")
        raise CorruptArtifactError(
            f"cannot read index artifact {source}: {exc}; the file is "
            "corrupt or truncated — restore it from a backup or rebuild "
            "the index"
        ) from exc
    if "format_version" not in raw:
        _obs.record_corrupt_artifact("index")
        raise CorruptArtifactError(
            f"index artifact {source} has no format_version marker; it "
            "was not written by save_index or has been damaged"
        )
    version = int(raw["format_version"])
    if version > _FORMAT_VERSION:
        raise ValueError(f"unsupported index format version {version}")
    fired = maybe_inject("index-load", fault_plan)
    if fired is not None:
        if fired.mode == "bitflip":
            # Chaos hook: flip one bit of the seed matrix after the read
            # — the checksum verification below must catch it.
            flipped = raw["seed_matrix"].copy()
            flipped.flat[0] = int(flipped.flat[0]) ^ 1
            raw["seed_matrix"] = flipped
        elif fired.mode == "error":
            raise InjectedFaultError(
                f"injected load failure for {source}"
            )
    try:
        if version >= 2:
            _verify_integrity(raw, source)
        config = _config_from_dict(json.loads(str(raw["config_json"])))
        index_points = raw["index_points"]
        seed_matrix = raw["seed_matrix"]
        gain_matrix = raw["gain_matrix"]
        algorithms = [str(a) for a in raw["algorithms"]]
    except CorruptArtifactError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        _obs.record_corrupt_artifact("index")
        raise CorruptArtifactError(
            f"index artifact {source} decoded to malformed contents "
            f"({exc}); restore it from a backup or rebuild the index"
        ) from exc
    seed_lists = []
    for row in range(seed_matrix.shape[0]):
        nodes = seed_matrix[row]
        valid = nodes >= 0
        gains = gain_matrix[row][valid]
        seed_lists.append(
            SeedList(
                tuple(int(v) for v in nodes[valid]),
                tuple(float(g) for g in gains) if gains.any() else (),
                algorithm=algorithms[row],
            )
        )
    return InflexIndex._restore(graph, index_points, seed_lists, config)


def _verify_integrity(raw: dict, source: Path) -> None:
    """Check every array against the archive's embedded CRC32 manifest."""
    if "integrity_json" not in raw:
        _obs.record_corrupt_artifact("index")
        raise CorruptArtifactError(
            f"index artifact {source} (format v2) is missing its "
            "integrity manifest; restore it from a backup or rebuild"
        )
    manifest = json.loads(str(raw["integrity_json"]))
    mismatched = [
        name
        for name, expected in manifest.items()
        if name not in raw or _array_crc(raw[name]) != int(expected)
    ]
    if mismatched:
        _obs.record_corrupt_artifact("index")
        raise CorruptArtifactError(
            f"index artifact {source} failed checksum verification for "
            f"{sorted(mismatched)}; the file is corrupt — restore it "
            "from a backup or rebuild the index"
        )


def _config_to_dict(config: InflexConfig) -> dict:
    data = asdict(config)
    # ``branching`` may be the string "gmeans" or an int; both are
    # JSON-native already.
    return data


def _config_from_dict(data: dict) -> InflexConfig:
    return InflexConfig(**data)
