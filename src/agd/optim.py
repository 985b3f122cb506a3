"""Adam optimizer over named parameters, plus the on-disk checkpoint format.

Checkpoint layout, format version 2: one line of sorted-key JSON, then the raw
little-endian float64 bytes of every array, back to back.

  {"config": {...},                         # free-form model configuration
   "format_version": 2,
   "manifest": [[kind, label, name, shape], ...],
   "optimizers": {label: {"lr", "beta1", "beta2", "eps", "step"}}}

`kind` is "param" (with a null `label`) or an Adam moment, "m" or "v" (with
the optimizer's label); the arrays follow the header in manifest order, each
in row-major order. The file holds nothing time-dependent, so reruns produce
byte-identical files and values survive save/load bit-exactly. Files are
written to a temp file in the target directory, synced and renamed onto the
path, so a crash never leaves a partial checkpoint behind.

Format version 1 (a single line of sorted-key JSON holding every value as
shortest-round-trip float text) is still read; it is no longer written.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, ShapeError
from .graphs import is_finite_real, is_integer


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(params: dict[str, Parameter], grads: dict[str, np.ndarray],
              state: AdamState) -> dict[str, Parameter]:
    """One bias-corrected Adam update, applied in place."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1 ** state.step
    bc2 = 1.0 - b2 ** state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.data.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = b1 * state.m[name] + (1.0 - b1) * g
        state.v[name] = b2 * state.v[name] + (1.0 - b2) * g * g
        m_hat = state.m[name] / bc1
        v_hat = state.v[name] / bc2
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params


# ---------------------------------------------------------------------------
# checkpoint IO
# ---------------------------------------------------------------------------

FORMAT_VERSION = 2
_DTYPE = np.dtype("<f8")
_KINDS = ("param", "m", "v")


class CheckpointError(ValueError):
    """A checkpoint file that is malformed or does not fit its own model."""


def save_checkpoint(path, params: dict[str, Parameter],
                    optimizers: dict[str, AdamState] | None = None,
                    config: dict | None = None) -> None:
    optimizers = optimizers or {}
    arrays = [("param", None, name, p.data) for name, p in params.items()]
    for label, st in optimizers.items():
        arrays += [("m", label, n, a) for n, a in st.m.items()]
        arrays += [("v", label, n, a) for n, a in st.v.items()]
    header = {
        "format_version": FORMAT_VERSION,
        "config": config or {},
        "manifest": [[kind, label, name, list(a.shape)] for kind, label, name, a in arrays],
        "optimizers": {
            label: {"lr": st.lr, "beta1": st.beta1, "beta2": st.beta2,
                    "eps": st.eps, "step": st.step}
            for label, st in optimizers.items()
        },
    }
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for _, _, _, a in arrays:
                fh.write(np.ascontiguousarray(a, dtype=_DTYPE))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path):
    """Returns (params, optimizers, config); raises CheckpointError on a
    malformed file or a parameter or moment that holds NaN or inf."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:    # also UnicodeDecodeError
            raise CheckpointError(f"{path}: not a checkpoint (bad header: {exc})") from None
        version = header.get("format_version") if isinstance(header, dict) else None
        if version not in (1, FORMAT_VERSION):
            raise CheckpointError(f"{path}: unsupported checkpoint format version: {version}")
        try:
            params, optimizers = (_from_v1(header, path) if version == 1
                                  else _read_v2(fh, header, path))
        except CheckpointError:
            raise
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from None
    for n, p in params.items():
        if not np.isfinite(p.data).all():
            raise CheckpointError(f"{path}: parameter {n!r} holds a non-finite value")
    for label, st in optimizers.items():
        for kind, moments in (("m", st.m), ("v", st.v)):
            for n, a in moments.items():
                if n not in params:
                    raise CheckpointError(f"{path}: optimizer {label!r} has a moment "
                                          f"for unknown parameter {n!r}")
                if a.shape != params[n].data.shape:
                    raise CheckpointError(f"{path}: optimizer {label!r} moment {kind} of "
                                          f"{n!r} has shape {a.shape}, parameter has "
                                          f"{params[n].data.shape}")
                if not np.isfinite(a).all():
                    raise CheckpointError(f"{path}: optimizer {label!r} moment {kind} of "
                                          f"{n!r} holds a non-finite value")
        if st.m.keys() != st.v.keys():
            raise CheckpointError(f"{path}: optimizer {label!r} has unpaired moments")
    return params, optimizers, header.get("config", {})


def check_shapes(params: dict[str, Parameter], expected: dict[str, tuple[int, ...]],
                 path) -> None:
    """Raise CheckpointError unless `params` has exactly the expected names
    and shapes."""
    missing = [n for n in expected if n not in params]
    extra = [n for n in params if n not in expected]
    if missing or extra:
        raise CheckpointError(f"{path}: parameters do not match the stored config "
                              f"(missing: {', '.join(map(repr, missing)) or 'none'}; "
                              f"unexpected: {', '.join(map(repr, extra)) or 'none'})")
    for n, shape in expected.items():
        if params[n].data.shape != tuple(shape):
            raise CheckpointError(f"{path}: parameter {n!r} has shape "
                                  f"{params[n].data.shape}, the stored config needs "
                                  f"{tuple(shape)}")


def _adam_state(st: dict, label, path) -> AdamState:
    """The optimizer `label` of a checkpoint header; its rates are finite
    reals and its step count a non-negative integer."""
    for name in ("lr", "beta1", "beta2", "eps"):
        if not is_finite_real(st[name]):
            raise CheckpointError(f"{path}: optimizer {label!r} field {name!r} must be "
                                  f"a finite real number, got {st[name]!r}")
    if not is_integer(st["step"]) or st["step"] < 0:
        raise CheckpointError(f"{path}: optimizer {label!r} field 'step' must be a "
                              f"non-negative integer, got {st['step']!r}")
    return AdamState(lr=st["lr"], beta1=st["beta1"], beta2=st["beta2"],
                     eps=st["eps"], step=st["step"])


def _read_v2(fh, header: dict, path):
    optimizers = {label: _adam_state(st, label, path)
                  for label, st in header["optimizers"].items()}
    entries = []
    for kind, label, name, shape in header["manifest"]:
        if (kind not in _KINDS or not isinstance(name, str)
                or not all(is_integer(d) and d >= 0 for d in shape)):
            raise CheckpointError(f"{path}: bad manifest entry {[kind, label, name, shape]}")
        entries.append((kind, label, name, tuple(shape)))
    expected = sum(math.prod(shape) for *_, shape in entries) * _DTYPE.itemsize
    actual = os.fstat(fh.fileno()).st_size - fh.tell()
    if actual != expected:
        raise CheckpointError(f"{path}: payload is {actual} bytes, the manifest "
                              f"describes {expected} (truncated or padded file)")
    params: dict[str, Parameter] = {}
    for kind, label, name, shape in entries:
        # a fresh array per entry: writable and owning its memory, since
        # adam_step updates parameters and moments in place
        a = np.empty(shape, dtype=_DTYPE)
        fh.readinto(memoryview(a.reshape(-1)).cast("B"))
        a = a.astype(np.float64, copy=False)
        target = params if kind == "param" else getattr(optimizers[label], kind)
        if name in target:
            raise CheckpointError(f"{path}: duplicate manifest entry for {name!r}")
        target[name] = Parameter(name, a) if kind == "param" else a
    return params, optimizers


def _from_v1(doc: dict, path):
    params = {}
    for name, entry in doc["params"].items():
        shape = tuple(entry["shape"])
        params[name] = Parameter(name, np.array(entry["data"], dtype=np.float64).reshape(shape))
    optimizers = {}
    for label, st in doc.get("optimizers", {}).items():
        state = _adam_state(st, label, path)
        for moments, flats in ((state.m, st["m"]), (state.v, st["v"])):
            for n, flat in flats.items():
                # a moment of an unknown parameter stays flat for the caller to reject
                shape = params[n].data.shape if n in params else -1
                moments[n] = np.array(flat, dtype=np.float64).reshape(shape)
        optimizers[label] = state
    return params, optimizers
