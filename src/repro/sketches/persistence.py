"""Saving and loading sketch banks.

Same durability contract as the index archive
(:mod:`repro.core.persistence`, format version 2): atomic, durable
writes (tmp file + fsync + ``os.replace`` + directory fsync) and an
embedded per-array CRC32 manifest that :func:`load_sketches` verifies —
a damaged archive raises :class:`~repro.errors.CorruptArtifactError`
rather than ever decoding into wrong pools.  The chaos hooks mirror the
index's too: fault site ``save-sketches`` simulates a crash between the
tmp write and the rename, ``sketches-load`` injects a bitflip (which
the manifest must catch) or a read error.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.config import SketchConfig
from repro.core.persistence import (
    _READ_ERRORS,
    _array_crc,
    _fsync_directory,
)
from repro.errors import CorruptArtifactError
from repro.obs import instruments as _obs
from repro.resilience.faults import InjectedFaultError, maybe_inject
from repro.sketches.bank import SketchBank

_FORMAT_VERSION = 2


def save_sketches(bank: SketchBank, path, *, fault_plan=None) -> None:
    """Write ``bank`` to ``path`` as a compressed ``.npz`` archive.

    Atomic like :func:`repro.core.persistence.save_index`: assembled in
    a same-directory temporary file and renamed over ``path`` only once
    fully written and fsynced, so a crash mid-save leaves any existing
    artifact untouched.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    arrays = dict(bank.arrays())
    arrays["num_nodes"] = np.int64(bank.num_nodes)
    arrays["config_json"] = np.asarray(json.dumps(asdict(bank.config)))
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
    fired = maybe_inject("save-sketches", fault_plan)
    if fired is not None and fired.mode == "crash":
        # Chaos hook: simulate the process dying between the tmp write
        # and the rename — exactly what the atomicity guarantee is for.
        raise InjectedFaultError(
            f"simulated crash before renaming {tmp} over {target}"
        )
    os.replace(tmp, target)
    _fsync_directory(target.parent)


def load_sketches(path, *, fault_plan=None) -> SketchBank:
    """Load a bank written by :func:`save_sketches`.

    Raises
    ------
    CorruptArtifactError
        When the archive is truncated, unreadable, missing members, or
        fails its embedded CRC32 checksums.
    ValueError
        When the archive is intact but written by a newer, unsupported
        format version.
    """
    source = Path(path)
    try:
        with open(source, "rb") as handle, np.load(
            handle, allow_pickle=False
        ) as data:
            raw = {name: data[name] for name in data.files}
    except _READ_ERRORS as exc:
        _obs.record_corrupt_artifact("sketches")
        raise CorruptArtifactError(
            f"cannot read sketch artifact {source}: {exc}; the file is "
            "corrupt or truncated — restore it from a backup or rebuild "
            "the sketches"
        ) from exc
    if "format_version" not in raw:
        _obs.record_corrupt_artifact("sketches")
        raise CorruptArtifactError(
            f"sketch artifact {source} has no format_version marker; it "
            "was not written by save_sketches or has been damaged"
        )
    version = int(raw["format_version"])
    if version > _FORMAT_VERSION:
        raise ValueError(f"unsupported sketch format version {version}")
    fired = maybe_inject("sketches-load", fault_plan)
    if fired is not None:
        if fired.mode == "bitflip":
            # Chaos hook: flip one bit of the roots after the read —
            # the checksum verification below must catch it.
            flipped = raw["roots_matrix"].copy()
            flipped.flat[0] = int(flipped.flat[0]) ^ 1
            raw["roots_matrix"] = flipped
        elif fired.mode == "error":
            raise InjectedFaultError(
                f"injected load failure for {source}"
            )
    try:
        _verify_integrity(raw, source)
        config = SketchConfig(**json.loads(str(raw["config_json"])))
        bank = SketchBank(
            raw["values"],
            raw["pool_offsets"],
            raw["indptr_matrix"],
            raw["roots_matrix"],
            int(raw["num_nodes"]),
            config,
        )
    except CorruptArtifactError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        _obs.record_corrupt_artifact("sketches")
        raise CorruptArtifactError(
            f"sketch artifact {source} decoded to malformed contents "
            f"({exc}); restore it from a backup or rebuild the sketches"
        ) from exc
    return bank


def _verify_integrity(raw: dict, source: Path) -> None:
    """Check every array against the archive's embedded CRC32 manifest."""
    if "integrity_json" not in raw:
        _obs.record_corrupt_artifact("sketches")
        raise CorruptArtifactError(
            f"sketch artifact {source} is missing its integrity "
            "manifest; restore it from a backup or rebuild"
        )
    manifest = json.loads(str(raw["integrity_json"]))
    mismatched = [
        name
        for name, expected in manifest.items()
        if name not in raw or _array_crc(raw[name]) != int(expected)
    ]
    if mismatched:
        _obs.record_corrupt_artifact("sketches")
        raise CorruptArtifactError(
            f"sketch artifact {source} failed checksum verification for "
            f"{sorted(mismatched)}; the file is corrupt — restore it "
            "from a backup or rebuild the sketches"
        )
