"""Bundling of the ordering network, the denoising network and optimizer
state into one checkpointable object."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Parameter
from .denoiser import DenoiserConfig, DenoiserNet
from .optim import (AdamState, CheckpointError, check_shapes, load_checkpoint,
                    save_checkpoint)
from .ordering import OrderingConfig, OrderingNet


@dataclass
class ModelBundle:
    ordering: OrderingNet
    denoiser: DenoiserNet
    adam_denoiser: AdamState
    adam_ordering: AdamState

    @classmethod
    def init(cls, ordering_config: OrderingConfig, denoiser_config: DenoiserConfig,
             rng: np.random.Generator, lr_denoiser: float = 1e-4,
             lr_ordering: float = 5e-4) -> "ModelBundle":
        return cls(
            ordering=OrderingNet.init(ordering_config, rng),
            denoiser=DenoiserNet.init(denoiser_config, rng),
            adam_denoiser=AdamState(lr=lr_denoiser),
            adam_ordering=AdamState(lr=lr_ordering),
        )

    def save(self, path) -> None:
        params = {f"ordering.{k}": p for k, p in self.ordering.params.items()}
        params.update((f"denoiser.{k}", p) for k, p in self.denoiser.params.items())

        def prefixed(state: AdamState, prefix: str) -> AdamState:
            out = AdamState(lr=state.lr, beta1=state.beta1, beta2=state.beta2,
                            eps=state.eps, step=state.step)
            out.m = {f"{prefix}.{k}": v for k, v in state.m.items()}
            out.v = {f"{prefix}.{k}": v for k, v in state.v.items()}
            return out

        save_checkpoint(path, params,
                        optimizers={"denoiser": prefixed(self.adam_denoiser, "denoiser"),
                                    "ordering": prefixed(self.adam_ordering, "ordering")},
                        config={"ordering": self.ordering.config.to_dict(),
                                "denoiser": self.denoiser.config.to_dict()})

    @classmethod
    def load(cls, path) -> "ModelBundle":
        """Load a bundle; raises CheckpointError when the file is malformed or
        its parameters do not fit its stored config."""
        params, optimizers, config = load_checkpoint(path)
        try:
            ordering_config = OrderingConfig(**config["ordering"])
            denoiser_config = DenoiserConfig(**config["denoiser"])
            adam = {label: optimizers[label] for label in ("denoiser", "ordering")}
            expected = {f"ordering.{name}": shape
                        for name, shape, _ in OrderingNet.param_specs(ordering_config)}
            expected.update((f"denoiser.{name}", shape)
                            for name, shape, _ in DenoiserNet.param_specs(denoiser_config))
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: malformed checkpoint: {exc!r}") from None
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad model config: {exc}") from None
        check_shapes(params, expected, path)

        def split(prefix: str) -> dict[str, Parameter]:
            out = {}
            for name, p in params.items():
                if name.startswith(prefix + "."):
                    p.name = name[len(prefix) + 1:]
                    out[p.name] = p
            return out

        def localized(state: AdamState, prefix: str) -> AdamState:
            out = AdamState(lr=state.lr, beta1=state.beta1, beta2=state.beta2,
                            eps=state.eps, step=state.step)
            out.m = {k[len(prefix) + 1:]: v for k, v in state.m.items()}
            out.v = {k[len(prefix) + 1:]: v for k, v in state.v.items()}
            return out

        return cls(
            ordering=OrderingNet(ordering_config, split("ordering")),
            denoiser=DenoiserNet(denoiser_config, split("denoiser")),
            adam_denoiser=localized(adam["denoiser"], "denoiser"),
            adam_ordering=localized(adam["ordering"], "ordering"),
        )
