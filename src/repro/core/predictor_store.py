"""Persistent, content-addressed store of fitted CORP predictors.

The in-process :class:`~repro.experiments.runner.PredictorCache` (PR 1)
amortizes the offline DNN/HMM fit *within* one process; every fresh CLI
run, CI job and pool worker still pays the full Eq. 5-8 training cost.
This store extends the cache across processes: each fitted predictor is
serialized (:meth:`Predictor.save_npz`) under a file name derived
from the *fit fingerprint* — a digest of the history trace's content and
every config field that shapes the fit — so a second process that would
train on identical data loads the artifact instead.

Layout (one artifact = one npz + one sidecar, both named by fingerprint)::

    <root>/
        <fingerprint>.npz    # the family's save_npz payload (corp: DNN
                             # weights, HMM (A, B, pi), CI seed errors,
                             # priors)
        <fingerprint>.json   # store/format version stamp, history
                             # digest, fit config, creation time

Invalidation is purely content-driven: the fingerprint covers
:data:`STORE_VERSION`, the payload format version, the history
digest and :data:`FIT_FIELDS`, so changing any of them changes the file
name and old artifacts simply stop being found (``repro cache clear``
reclaims the space).  Writers are concurrency-safe by construction:
artifacts are written to a temp file in the store directory and
published with an atomic :func:`os.replace`, so readers only ever see
complete files and the last concurrent writer of one key wins with
identical content.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING

from ..forecast.base import PAYLOAD_VERSION
from ..forecast.registry import predictor_class
from ..obs import OBS
from .config import CorpConfig

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .predictor import CorpPredictor

__all__ = [
    "STORE_VERSION",
    "FIT_FIELDS",
    "PredictorStore",
    "fit_fingerprint",
    "default_store_dir",
]

#: Bumped when stored artifacts become semantically incompatible with
#: the current fit pipeline; part of the fingerprint, so a bump
#: invalidates every old artifact without touching the files.
#: 2: the CORP family moved from its own archive layout to the
#: ``save_npz`` payload every family uses.  3: every family archives
#: all of its constructor parameters (ETS / Markov gained theirs) and
#: the quantile family dropped two arrays nothing read.
STORE_VERSION = 3

#: Every CorpConfig field that shapes the fitted models, training-loop
#: knobs (epoch cap, batch size) included — two configs that differ in
#: any of these may fit different models and must map to different
#: artifacts.
FIT_FIELDS: tuple[str, ...] = (
    "window_slots",
    "input_slots",
    "n_hidden_layers",
    "units_per_layer",
    "hmm_mode",
    "use_hmm_correction",
    "prediction_target",
    "min_history_slots",
    "train_quantile",
    "seed",
    "train_max_epochs",
    "train_batch_size",
)


def fit_fingerprint(
    config: CorpConfig, history_digest: str, family: str = "corp"
) -> str:
    """Hex digest identifying one (family, config, history) fit.

    Covers the predictor family, the store and payload format
    versions, the full :data:`FIT_FIELDS` identity and the history
    trace's content digest — everything that determines the bit pattern
    of a deterministic fit.  The family is part of the key so artifacts
    from different predictor implementations can never shadow each
    other.
    """
    payload = {
        "store_version": STORE_VERSION,
        "format_version": PAYLOAD_VERSION,
        "family": family,
        "history_digest": history_digest,
        "config": {name: getattr(config, name) for name in FIT_FIELDS},
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def default_store_dir() -> Path:
    """The on-disk cache root: ``$REPRO_CACHE_DIR`` or the XDG default."""
    # expanduser(): a literal `~` in either env var would otherwise
    # create a directory named "~" in the CWD.
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-corp" / "predictors"


class PredictorStore:
    """Digest-keyed directory of serialized fitted predictors.

    All operations tolerate a missing directory (it is created lazily on
    the first save) and corrupt or foreign files (skipped, never
    raised past) — the store is a cache, and a cache must degrade to a
    miss, not to a crash.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_store_dir()
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.warm_hits = 0

    # ------------------------------------------------------------------
    def _npz_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.npz"

    def _meta_path(self, fingerprint: str) -> Path:
        return self.root / f"{fingerprint}.json"

    # ------------------------------------------------------------------
    def load(
        self,
        config: CorpConfig,
        history_digest: str,
        family: str = "corp",
    ):
        """The stored predictor for (family, config, history), or None.

        Restored via the family class's :meth:`Predictor.load_npz`,
        which is handed the *requested* config object: archives only
        serialize the fit-shaping fields, and the fingerprint
        guarantees those match, so adopting the caller's config
        restores the runtime knobs too.
        """
        fingerprint = fit_fingerprint(config, history_digest, family)
        path = self._npz_path(fingerprint)
        if not path.is_file():
            self.misses += 1
            OBS.count("predictor_store.miss")
            return None
        try:
            predictor = predictor_class(family).load_npz(path, config=config)
        except Exception:  # corrupt / truncated / stale-format artifact
            self.misses += 1
            OBS.count("predictor_store.miss")
            return None
        self.hits += 1
        OBS.count("predictor_store.hit")
        return predictor

    def save(
        self,
        config: CorpConfig,
        history_digest: str,
        predictor,
    ) -> Path:
        """Persist a fitted predictor; returns the artifact path.

        The family is taken from the predictor itself and keyed into
        the fingerprint.  Write-to-temp + atomic rename: concurrent
        writers of the same key race harmlessly (identical content,
        last rename wins) and readers never observe a partial file.
        """
        family = predictor.family
        fingerprint = fit_fingerprint(config, history_digest, family)
        self.root.mkdir(parents=True, exist_ok=True)
        final = self._npz_path(fingerprint)
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=f".{fingerprint[:16]}-", suffix=".tmp.npz"
        )
        os.close(fd)
        try:
            predictor.save_npz(tmp)
            os.replace(tmp, final)
        finally:
            if os.path.exists(tmp):  # pragma: no cover - failed save
                os.unlink(tmp)
        meta = {
            "store_version": STORE_VERSION,
            "format_version": PAYLOAD_VERSION,
            "family": family,
            "fingerprint": fingerprint,
            "history_digest": history_digest,
            "config": {name: getattr(config, name) for name in FIT_FIELDS},
            "created": time.time(),
        }
        fd, tmp_meta = tempfile.mkstemp(
            dir=self.root, prefix=f".{fingerprint[:16]}-", suffix=".tmp.json"
        )
        with os.fdopen(fd, "w") as handle:
            json.dump(meta, handle, sort_keys=True)
        os.replace(tmp_meta, self._meta_path(fingerprint))
        self.saves += 1
        OBS.count("predictor_store.save")
        return final

    # ------------------------------------------------------------------
    def nearest(
        self, config: CorpConfig, *, exclude_digest: str | None = None
    ) -> "CorpPredictor | None":
        """Warm-start donor: a stored fit of the same config on *other* data.

        Scans the sidecar metadata for artifacts whose fit config
        matches ``config`` exactly but whose history digest differs
        (the "training window shifted" case), and returns the most
        recently created one.  The donor's weights seed the refit; they
        never substitute for it.
        """
        wanted = {name: getattr(config, name) for name in FIT_FIELDS}
        best: dict | None = None
        for meta in self.entries():
            if meta.get("store_version") != STORE_VERSION:
                continue
            # Warm starts are a DNN-weights concept; only the CORP
            # family (legacy entries carry no family stamp) qualifies.
            if meta.get("family", "corp") != "corp":
                continue
            if meta.get("config") != wanted:
                continue
            if exclude_digest is not None and meta.get("history_digest") == exclude_digest:
                continue
            if best is None or meta.get("created", 0) > best.get("created", 0):
                best = meta
        if best is None:
            return None
        try:
            donor = predictor_class("corp").load_npz(
                self._npz_path(best["fingerprint"])
            )
        except Exception:  # pragma: no cover - corrupt donor
            return None
        self.warm_hits += 1
        OBS.count("predictor_store.warm_hit")
        return donor

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Sidecar metadata of every complete artifact, unordered."""
        if not self.root.is_dir():
            return []
        out: list[dict] = []
        for meta_path in self.root.glob("*.json"):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):  # pragma: no cover - corrupt
                continue
            if not isinstance(meta, dict) or "fingerprint" not in meta:
                continue
            if self._npz_path(meta["fingerprint"]).is_file():
                out.append(meta)
        return out

    def stats(self) -> dict:
        """Store summary for ``repro cache stats`` and profile output."""
        entries = self.entries()
        total_bytes = 0
        for meta in entries:
            try:
                total_bytes += self._npz_path(meta["fingerprint"]).stat().st_size
            except OSError:  # pragma: no cover - racing clear
                pass
        return {
            "root": str(self.root),
            "store_version": STORE_VERSION,
            "entries": len(entries),
            "total_bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "saves": self.saves,
            "warm_hits": self.warm_hits,
        }

    def clear(self) -> int:
        """Delete every artifact (and stray temp file); returns the count.

        Only complete npz/json pairs count toward the return value, but
        leftovers from crashed writers are swept too.
        """
        if not self.root.is_dir():
            return 0
        removed = 0
        for path in self.root.iterdir():
            if path.suffix == ".npz" and not path.name.startswith("."):
                removed += 1
            if path.is_file() and (
                path.suffix in (".npz", ".json") or ".tmp." in path.name
            ):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing clear
                    pass
        return removed

    def __len__(self) -> int:
        return len(self.entries())
