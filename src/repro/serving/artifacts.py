"""Versioned on-disk model artifacts: ``save_result`` / ``load_result``.

A fitted :class:`~repro.core.model.MLPResult` is the expensive thing in
this codebase -- minutes of Gibbs sweeps -- yet before this module it
died with the process.  An **artifact** is one compressed
``.mlp.npz`` file (a NumPy zip archive, no pickling) that round-trips a
result *bit-for-bit*:

- the embedded dataset (gazetteer included), reusing the exact
  :mod:`repro.data.io` wire payload;
- the fitted params, profiles, explanations, convergence trace and
  power-law history;
- the frozen venue-side posterior table serving fold-in scores against;
- for multi-chain fits, the full :class:`~repro.engine.pool.PooledPosterior`
  (per-chain mean counts, traces, law histories, final states and edge
  tallies).

The compiled columnar world is *not* stored: it is derived data, and
``compile_world(result.dataset)`` rebuilds it bit for bit on first use.

The format is versioned like the dataset format: loading an unknown
version or a corrupted file raises :class:`ArtifactError` loudly rather
than guessing.  Every artifact carries a deterministic ``artifact_id``
(a content hash) that the serving cache keys on.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.core.convergence import ConvergenceTrace, IterationStats
from repro.core.model import MLPResult
from repro.core.params import MLPParams
from repro.core.results import (
    EdgeExplanation,
    LocationProfile,
    TweetExplanation,
)
from repro.core.state import EdgeAssignmentTally
from repro.data.io import dataset_from_payload, dataset_to_payload
from repro.engine.pool import ChainResult, PooledPosterior
from repro.mathx.powerlaw import PowerLaw

#: Artifact format version written by this build; bump on any layout
#: change.  Version 2 added a persisted columnar world (``world_*``
#: arrays + ``world_hash`` metadata); version 3 stores the dataset
#: payload as UTF-8 bytes (a ``uint8`` array) instead of a NumPy
#: unicode scalar, which is UCS-4: four times the bytes for zlib to
#: compress; version 4 drops the persisted world again.
ARTIFACT_VERSION = 4

#: Versions this build can read.  The ``world_*`` records of versions
#: 2 and 3 are ignored: every version recompiles the world from the
#: dataset on first use.
SUPPORTED_ARTIFACT_VERSIONS = (1, 2, 3, 4)

#: Conventional artifact file suffix (not enforced).
ARTIFACT_SUFFIX = ".mlp.npz"


class ArtifactError(ValueError):
    """A model artifact is corrupted, truncated, or of an unknown version."""


# -- packing helpers ------------------------------------------------------


def _pack_profiles(
    profiles: tuple[LocationProfile, ...],
) -> dict[str, np.ndarray]:
    return {
        "prof_counts": np.array(
            [len(p.entries) for p in profiles], dtype=np.int64
        ),
        "prof_locs": np.array(
            [loc for p in profiles for loc, _ in p.entries], dtype=np.int64
        ),
        "prof_probs": np.array(
            [pr for p in profiles for _, pr in p.entries], dtype=np.float64
        ),
    }


def _unpack_profiles(data) -> tuple[LocationProfile, ...]:
    counts = data["prof_counts"]
    locs = data["prof_locs"].tolist()
    probs = data["prof_probs"].tolist()
    profiles = []
    pos = 0
    for uid, n in enumerate(counts.tolist()):
        entries = tuple(
            (locs[pos + i], probs[pos + i]) for i in range(n)
        )
        pos += n
        profiles.append(LocationProfile(user_id=uid, entries=entries))
    return tuple(profiles)


def _pack_explanations(
    explanations: tuple[EdgeExplanation, ...],
) -> dict[str, np.ndarray]:
    return {
        "expl_edge": np.array([e.edge_index for e in explanations], dtype=np.int64),
        "expl_follower": np.array([e.follower for e in explanations], dtype=np.int64),
        "expl_friend": np.array([e.friend for e in explanations], dtype=np.int64),
        "expl_x": np.array([e.x for e in explanations], dtype=np.int64),
        "expl_y": np.array([e.y for e in explanations], dtype=np.int64),
        "expl_support": np.array([e.support for e in explanations], dtype=np.float64),
        "expl_noise": np.array(
            [e.noise_probability for e in explanations], dtype=np.float64
        ),
    }


def _unpack_explanations(data) -> tuple[EdgeExplanation, ...]:
    return tuple(
        EdgeExplanation(
            edge_index=int(e),
            follower=int(fo),
            friend=int(fr),
            x=int(x),
            y=int(y),
            support=float(s),
            noise_probability=float(n),
        )
        for e, fo, fr, x, y, s, n in zip(
            data["expl_edge"],
            data["expl_follower"],
            data["expl_friend"],
            data["expl_x"],
            data["expl_y"],
            data["expl_support"],
            data["expl_noise"],
        )
    )


def _pack_tweet_explanations(
    explanations: tuple[TweetExplanation, ...],
) -> dict[str, np.ndarray]:
    return {
        "texpl_edge": np.array([e.edge_index for e in explanations], dtype=np.int64),
        "texpl_user": np.array([e.user for e in explanations], dtype=np.int64),
        "texpl_venue": np.array([e.venue_id for e in explanations], dtype=np.int64),
        "texpl_z": np.array([e.z for e in explanations], dtype=np.int64),
        "texpl_support": np.array([e.support for e in explanations], dtype=np.float64),
        "texpl_noise": np.array(
            [e.noise_probability for e in explanations], dtype=np.float64
        ),
    }


def _unpack_tweet_explanations(data) -> tuple[TweetExplanation, ...]:
    return tuple(
        TweetExplanation(
            edge_index=int(e),
            user=int(u),
            venue_id=int(v),
            z=int(z),
            support=float(s),
            noise_probability=float(n),
        )
        for e, u, v, z, s, n in zip(
            data["texpl_edge"],
            data["texpl_user"],
            data["texpl_venue"],
            data["texpl_z"],
            data["texpl_support"],
            data["texpl_noise"],
        )
    )


def _pack_trace(trace: ConvergenceTrace, prefix: str) -> dict[str, np.ndarray]:
    stats = trace.iterations
    metrics = np.array(
        [0.0 if s.metric is None else s.metric for s in stats],
        dtype=np.float64,
    )
    return {
        f"{prefix}iter": np.array([s.iteration for s in stats], dtype=np.int64),
        f"{prefix}changed": np.array(
            [s.changed_fraction for s in stats], dtype=np.float64
        ),
        f"{prefix}noise_f": np.array(
            [s.noise_following_fraction for s in stats], dtype=np.float64
        ),
        f"{prefix}noise_t": np.array(
            [s.noise_tweeting_fraction for s in stats], dtype=np.float64
        ),
        f"{prefix}metric": metrics,
        f"{prefix}metric_mask": np.array(
            [s.metric is not None for s in stats], dtype=np.bool_
        ),
    }


def _unpack_trace(data, prefix: str) -> ConvergenceTrace:
    trace = ConvergenceTrace()
    for it, ch, nf, nt, metric, has_metric in zip(
        data[f"{prefix}iter"].tolist(),
        data[f"{prefix}changed"].tolist(),
        data[f"{prefix}noise_f"].tolist(),
        data[f"{prefix}noise_t"].tolist(),
        data[f"{prefix}metric"].tolist(),
        data[f"{prefix}metric_mask"].tolist(),
    ):
        trace.append(
            IterationStats(
                iteration=it,
                changed_fraction=ch,
                noise_following_fraction=nf,
                noise_tweeting_fraction=nt,
                metric=metric if has_metric else None,
            )
        )
    return trace


def _pack_laws(
    laws: tuple[PowerLaw, ...], prefix: str
) -> dict[str, np.ndarray]:
    return {
        f"{prefix}alpha": np.array([l.alpha for l in laws], dtype=np.float64),
        f"{prefix}beta": np.array([l.beta for l in laws], dtype=np.float64),
        f"{prefix}minx": np.array([l.min_x for l in laws], dtype=np.float64),
    }


def _unpack_laws(data, prefix: str) -> tuple[PowerLaw, ...]:
    return tuple(
        PowerLaw(alpha=float(a), beta=float(b), min_x=float(m))
        for a, b, m in zip(
            data[f"{prefix}alpha"], data[f"{prefix}beta"], data[f"{prefix}minx"]
        )
    )


_FINAL_STATE_KEYS = ("mu", "x", "y", "nu", "z")
_TALLY_KEYS = (
    "f_edge",
    "f_x",
    "f_y",
    "f_count",
    "z_edge",
    "z_z",
    "z_count",
    "mu_noise",
    "nu_noise",
    "samples",
)


def _pack_posterior(posterior: PooledPosterior) -> tuple[dict, dict]:
    """Posterior -> (meta fragment, arrays)."""
    arrays: dict[str, np.ndarray] = {}
    chain_meta = []
    for chain in posterior.chains:
        c = chain.chain_index
        p = f"c{c}_"
        arrays[f"{p}mean_counts"] = chain.mean_theta_counts
        if chain.mean_venue_counts is not None:
            arrays[f"{p}venue_counts"] = chain.mean_venue_counts
        arrays.update(_pack_trace(chain.trace, f"{p}trace_"))
        arrays.update(_pack_laws(chain.law_history, f"{p}law_"))
        for key in _FINAL_STATE_KEYS:
            arrays[f"{p}fs_{key}"] = chain.final_state[key]
        if chain.edge_tally is not None:
            for key, arr in chain.edge_tally.to_arrays().items():
                arrays[f"{p}tally_{key}"] = arr
        chain_meta.append(
            {
                "chain_index": chain.chain_index,
                "seed": chain.seed,
                "has_tally": chain.edge_tally is not None,
                "has_venue_counts": chain.mean_venue_counts is not None,
            }
        )
    return {"burn_in": posterior.burn_in, "chains": chain_meta}, arrays


def _unpack_posterior(meta: dict, data) -> PooledPosterior:
    chains = []
    for info in meta["chains"]:
        c = info["chain_index"]
        p = f"c{c}_"
        tally = None
        if info["has_tally"]:
            tally = EdgeAssignmentTally.from_arrays(
                {key: data[f"{p}tally_{key}"] for key in _TALLY_KEYS}
            )
        chains.append(
            ChainResult(
                chain_index=c,
                seed=info["seed"],
                mean_theta_counts=data[f"{p}mean_counts"],
                trace=_unpack_trace(data, f"{p}trace_"),
                law_history=_unpack_laws(data, f"{p}law_"),
                edge_tally=tally,
                final_state={
                    key: data[f"{p}fs_{key}"] for key in _FINAL_STATE_KEYS
                },
                mean_venue_counts=(
                    data[f"{p}venue_counts"]
                    if info["has_venue_counts"]
                    else None
                ),
            )
        )
    return PooledPosterior(chains=tuple(chains), burn_in=meta["burn_in"])


# -- public API -----------------------------------------------------------


def compute_artifact_id(
    dataset_json: str, params_json: str, arrays: dict[str, np.ndarray]
) -> str:
    """Deterministic content hash identifying an artifact (cache key)."""
    digest = hashlib.sha256()
    digest.update(dataset_json.encode("utf-8"))
    digest.update(params_json.encode("utf-8"))
    for key in sorted(arrays):
        digest.update(key.encode("utf-8"))
        digest.update(np.ascontiguousarray(arrays[key]).tobytes())
    return digest.hexdigest()[:16]


def save_result(result: MLPResult, path: str | Path) -> str:
    """Persist a fitted result as one compressed artifact file.

    Returns the artifact id.  The conventional suffix is ``.mlp.npz``
    but any path is accepted (the file is written exactly where asked).
    """
    dataset_json = json.dumps(dataset_to_payload(result.dataset))
    params_json = json.dumps(asdict(result.params), sort_keys=True)

    arrays: dict[str, np.ndarray] = {}
    arrays.update(_pack_profiles(result.profiles))
    arrays.update(_pack_explanations(result.explanations))
    arrays.update(_pack_tweet_explanations(result.tweet_explanations))
    arrays.update(_pack_trace(result.trace, "trace_"))
    arrays.update(_pack_laws(result.law_history, "law_"))
    if result.venue_counts is not None:
        arrays["venue_counts"] = result.venue_counts

    posterior_meta = None
    if result.posterior is not None:
        posterior_meta, posterior_arrays = _pack_posterior(result.posterior)
        arrays.update(posterior_arrays)

    artifact_id = compute_artifact_id(dataset_json, params_json, arrays)
    meta = {
        "format_version": ARTIFACT_VERSION,
        "artifact_id": artifact_id,
        "params": json.loads(params_json),
        "n_users": result.dataset.n_users,
        "n_locations": len(result.dataset.gazetteer),
        "n_venues": len(result.dataset.gazetteer.venue_vocabulary),
        "has_venue_counts": result.venue_counts is not None,
        "posterior": posterior_meta,
    }
    # Write through an open handle: np.savez would otherwise append
    # ".npz" to paths that lack it, silently moving the artifact.
    with open(path, "wb") as fh:
        np.savez_compressed(
            fh,
            meta=np.array(json.dumps(meta)),
            dataset_json=np.frombuffer(
                dataset_json.encode("utf-8"), dtype=np.uint8
            ),
            **arrays,
        )
    return artifact_id


def _open_artifact(path: str | Path):
    """np.load with corruption mapped to :class:`ArtifactError`."""
    try:
        data = np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        raise ArtifactError(
            f"{path}: not a readable model artifact ({exc})"
        ) from exc
    if "meta" not in data.files:
        raise ArtifactError(
            f"{path}: not a model artifact (no metadata record)"
        )
    try:
        meta = json.loads(str(data["meta"][()]))
    except (json.JSONDecodeError, ValueError) as exc:
        raise ArtifactError(f"{path}: corrupted artifact metadata") from exc
    version = meta.get("format_version")
    if version not in SUPPORTED_ARTIFACT_VERSIONS:
        raise ArtifactError(
            f"{path}: unsupported artifact format version {version!r} "
            f"(this build reads versions {SUPPORTED_ARTIFACT_VERSIONS})"
        )
    return meta, data


def _dataset_text(data) -> str:
    """The embedded dataset's JSON text: UTF-8 bytes (versions 3 and 4)
    or a unicode scalar (versions 1 and 2)."""
    payload = data["dataset_json"]
    if payload.dtype == np.uint8:
        return payload.tobytes().decode("utf-8")
    return str(payload[()])


def artifact_metadata(path: str | Path) -> dict:
    """Read an artifact's metadata (id, params, sizes) without arrays."""
    meta, data = _open_artifact(path)
    data.close()
    return meta


def load_result(path: str | Path) -> MLPResult:
    """Load an artifact back into a bit-identical :class:`MLPResult`."""
    meta, data = _open_artifact(path)
    try:
        dataset = dataset_from_payload(json.loads(_dataset_text(data)))
        params = MLPParams(**meta["params"])
        posterior = (
            _unpack_posterior(meta["posterior"], data)
            if meta["posterior"] is not None
            else None
        )
        result = MLPResult(
            dataset=dataset,
            params=params,
            profiles=_unpack_profiles(data),
            explanations=_unpack_explanations(data),
            tweet_explanations=_unpack_tweet_explanations(data),
            trace=_unpack_trace(data, "trace_"),
            law_history=_unpack_laws(data, "law_"),
            posterior=posterior,
            venue_counts=(
                data["venue_counts"] if meta["has_venue_counts"] else None
            ),
        )
    except KeyError as exc:
        raise ArtifactError(
            f"{path}: truncated artifact (missing record {exc})"
        ) from exc
    finally:
        data.close()
    return result
