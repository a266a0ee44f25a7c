"""Desk-scale DNA masked-language-model pre-training toolkit.

k-mer tokenization (overlapping, non-overlapping, same-length), curriculum
span masking with staged widths, a small deterministic transformer-encoder
MLM trained with hand-derived gradients and AdamW, and the diagnostics
(MCC, attention concentration/entropy, embedding organization, stage-jump
detection) needed to study the pre-training dynamics.
"""

from .corpus import (
    CorpusSettings,
    DnaSequence,
    LabeledExample,
    generate_synthetic,
    load_labeled,
    parse_fasta,
    sample_windows,
)
from .tokenizer import (
    Strategy,
    TokenSequence,
    Vocabulary,
    build_vocab,
    decode_overlapping,
    encode,
    encode_nonoverlapping,
    encode_overlapping,
    encode_same_length,
    wrap_for_model,
)
from .masking import (
    CorruptionPolicy,
    IGNORE_LABEL,
    MaskPlan,
    MaskSchedule,
    allowed_widths,
    apply_corruption,
    expected_mask_fraction,
    plan_mask,
)
from .model import (
    Batch,
    ForwardTrace,
    ModelConfig,
    ModelParams,
    backward,
    finetune_classify,
    forward,
    init_model,
    init_optimizer,
    load_checkpoint,
    mlm_loss,
    save_checkpoint,
    train_step,
)
from .analysis import (
    ConfusionCounts,
    RunReport,
    attention_cls_mass,
    attention_entropy,
    embedding_silhouette,
    emit_report,
    mcc,
    multiclass_mcc,
    stage_jump_detector,
)
from .config import RunConfig, run_config_from_dict
from .pipeline import pretrain_run

__version__ = "0.1.0"
