"""Run configuration: a key=value file overridden by command-line flags."""
from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path


@dataclass
class RunConfig:
    data: str = ""
    out_dir: str = "runs/default"
    vocab_max_size: int = 4888
    enc_vocab_max_size: int = 30000
    num_topics: int = 10
    gamma: float = 0.1
    batch_size: int = 16
    lr_classifier: float = 2e-5
    lr_ntm: float = 2e-3
    n_top_terms: int = 10
    ratio_p: float = 0.5
    seed: int = 13
    iterations: int = 20
    ntm_epochs: int = 1
    classifier_epochs: int = 1
    patience: int = 5
    kl_warmup_epochs: int = 10
    latent_dim: int = 64
    ntm_hidden_dim: int = 256
    emb_dim: int = 100
    encoder_hidden_dim: int = 128
    encoder_output_dim: int = 128
    max_len: int = 128
    npmi_window: int = 10
    use_topics: bool = True
    folds: int = 10

    def validate(self) -> None:
        positive = (
            "vocab_max_size", "enc_vocab_max_size", "num_topics", "batch_size",
            "n_top_terms", "iterations", "ntm_epochs", "classifier_epochs",
            "latent_dim", "ntm_hidden_dim", "emb_dim", "encoder_hidden_dim",
            "encoder_output_dim", "max_len", "npmi_window", "folds",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"config field {name} must be >= 1")
        if not 0.0 < self.ratio_p < 1.0:
            raise ValueError("ratio_p must be in (0, 1)")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        for name in ("lr_ntm", "lr_classifier"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"config field {name} must be > 0")


_BOOL_STRINGS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(raw: str, type_):
    if type_ is bool:
        value = _BOOL_STRINGS.get(raw.strip().lower())
        if value is None:
            raise ValueError(f"cannot parse boolean from {raw!r}")
        return value
    return type_(raw)


def load_config_file(path) -> RunConfig:
    """Parse key=value lines; '#' starts a comment, blank lines ignored."""
    cfg = RunConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(RunConfig)}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            setattr(cfg, key, _parse_value(raw, types[key]))
    return cfg


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Set non-None override values onto the config (flags win over the file)."""
    for key, value in overrides.items():
        if value is None:
            continue
        if not hasattr(cfg, key):
            raise ValueError(f"unknown config key {key!r}")
        setattr(cfg, key, value)
    return cfg


def write_snapshot(cfg: RunConfig, path) -> None:
    """Resolved config as sorted key=value lines; reruns are diff-able."""
    items = sorted(asdict(cfg).items())
    Path(path).write_text(
        "".join(f"{k}={v}\n" for k, v in items), encoding="utf-8"
    )
