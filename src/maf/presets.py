"""The fusion-gap operating point, shared by the acceptance tests, the
experiment runner and the scripts.

At this point (600 train / 100 held-out synthetic instances, three seeds)
the gated model reaches full action accuracy while the text-only model
stays at the 20% floor. Copies of these values drift; import them instead.
"""

from .model import ModelConfig, TrainConfig
from .synthetic import SyntheticSpec

__all__ = ["GAP_SPEC", "GAP_MODEL", "GAP_TRAIN", "GAP_SEEDS", "GAP_VARIANTS", "TEST_SEED_SALT"]

GAP_SPEC = SyntheticSpec(
    num_instances=600,
    speakers=6,
    actions=5,
    targets=6,
    frames=12,
    windows=8,
    noise=0.1,
    rich_templates=True,
)
GAP_MODEL = ModelConfig(d=32, ffn=64, d_c_audio=8, d_c_video=16, max_text_len=24)
GAP_TRAIN = TrainConfig(lr=5e-4, epochs=12, batch_size=16)
GAP_SEEDS = (1, 2, 3)
# the roster the ablation script trains: the text-only floor, the full
# design, and one ablation per design choice
GAP_VARIANTS = ("TextOnly", "MAF", "Concat2", "DPA", "NoGIF")

# held-out synthetic data is generated from seed ^ TEST_SEED_SALT, a stream
# distinct from every training seed in a small grid
TEST_SEED_SALT = 0x9E3779B9
