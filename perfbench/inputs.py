"""Seeded inputs and pinned run configurations of the three workloads.

Every configuration is written out in full, so that a later change to the
program's defaults cannot silently change a workload.  Inputs are drawn
with numpy's own generator keyed by ``(seed, purpose, round)``; the program
sees only the generated data.
"""

from __future__ import annotations

import numpy as np

K = 6
MOTIF = "TATAATGCGC"

# --- pretrain ---------------------------------------------------------------

PRETRAIN_STEPS = 60
PRETRAIN_MIN_ROUNDS = 2


def pretrain_config(seed: int, total_steps: int = PRETRAIN_STEPS) -> dict:
    """The desk default run, with ``total_steps`` long enough for all five stages."""
    return {
        "corpus": {
            "source": "synthetic", "fasta_path": None, "lenient": False,
            "num_sequences": 256, "sequence_length": 512,
            "motifs": [["TATAATGCGC", 0.6], ["GGCCAATCAG", 0.6]],
            "background": [0.25, 0.25, 0.25, 0.25],
            "window_length": 512, "window_stride": None, "max_n_fraction": 0.1,
        },
        "tokenizer": {"k": K, "strategy": "overlapping"},
        "masking": {
            "p": 0.025, "mode": "randommask",
            "stage_fractions": [0.06, 0.12, 0.20, 0.30, 1.00],
            "base_width": 6, "width_increment": 2,
            "policy": {"p_mask": 0.8, "p_random": 0.1, "p_keep": 0.1},
        },
        "model": {
            "num_layers": 2, "num_heads": 4, "hidden_dim": 64, "ff_dim": 256,
            "max_len": 128, "dropout_rate": 0.0, "tie_embeddings": False,
            "dtype": "float32",
        },
        "training": {
            "total_steps": total_steps, "batch_size": 16, "lr": 0.001,
            "weight_decay": 0.01, "seed": seed, "workers": 1,
        },
        "finetune": {
            "epochs": 5, "lr": 3e-5, "batch_size": 32, "weight_decay": 0.0,
            "freeze_backbone": False,
        },
    }


def round_seed(seed: int, index: int) -> int:
    """Distinct training seed of round ``index`` of a run with ``seed``."""
    return (seed * 1000 + index) % (2 ** 31)


# --- classify ---------------------------------------------------------------

CLASSIFY_MODEL = {
    "num_layers": 2, "num_heads": 4, "hidden_dim": 64, "ff_dim": 256,
    "max_len": 128, "num_classes": 2, "dropout_rate": 0.0,
    "tie_embeddings": False, "dtype": "float32",
}
CLASSIFY_FINETUNE = {
    "epochs": 2, "lr": 3e-3, "batch_size": 32, "weight_decay": 0.0,
    "beta1": 0.9, "beta2": 0.999, "freeze_backbone": False,
}
FINETUNE_EXAMPLES = 64
CLASSIFY_SETUPS = 3
CLASSIFY_MIN_ROUNDS = 10
SEQ_MIN_BP, SEQ_MAX_BP = 40, 131       # 35..126 overlapping 6-mers: fits max_len 128

#: Batch sizes of one round of 100 requests, shuffled per round: mostly 1-8,
#: sometimes 64.  The median request lands inside the batch-2 mass (cumulative
#: 25-71%) and p99 in the middle of the batch-64 mass (98-100%).
REQUEST_MIX = {1: 25, 2: 46, 4: 15, 8: 12, 64: 2}


def _random_bases(rng: np.random.Generator, n: int) -> str:
    return "".join("ACGT"[c] for c in rng.integers(0, 4, size=n))


def labeled_sequences(rng: np.random.Generator, n: int, seen: set | None = None):
    """``n`` unique sequences of 40-131 bp; label 1 carries the planted motif."""
    seqs, labels = [], []
    while len(seqs) < n:
        length = int(rng.integers(SEQ_MIN_BP, SEQ_MAX_BP + 1))
        bases = _random_bases(rng, length)
        label = int(rng.integers(0, 2))
        if label:
            at = int(rng.integers(0, length - len(MOTIF) + 1))
            bases = bases[:at] + MOTIF + bases[at + len(MOTIF):]
        if seen is not None:
            if bases in seen:
                continue
            seen.add(bases)
        seqs.append(bases)
        labels.append(label)
    return seqs, labels


def finetune_set(seed: int):
    return labeled_sequences(np.random.default_rng([seed, 1]), FINETUNE_EXAMPLES)


def request_round(seed: int, index: int, seen: set, mix: dict = REQUEST_MIX):
    """One round of requests: list of (sequences, labels), in shuffled order."""
    rng = np.random.default_rng([seed, 2, index])
    sizes = np.repeat(list(mix), list(mix.values()))
    rng.shuffle(sizes)
    return [labeled_sequences(rng, int(b), seen) for b in sizes]


# --- genome-data ------------------------------------------------------------

GENOME_RECORDS = (800_000, 600_000, 400_000, 200_000)     # 2.0 Mbp
FASTA_LINE = 60
WINDOW = 512
MAX_N_FRACTION = 0.1
GENOME_STEPS = 200
GENOME_MIN_ROUNDS = 5
GENOME_SETUPS = 25


def genome_config(seed: int, total_steps: int = GENOME_STEPS) -> dict:
    """Data-side run config at the paper's 512-token frame length."""
    cfg = pretrain_config(seed, total_steps)
    cfg["corpus"].update({"window_length": WINDOW, "max_n_fraction": MAX_N_FRACTION})
    cfg["model"]["max_len"] = WINDOW
    return cfg


def genome(seed: int, index: int, lengths=GENOME_RECORDS):
    """Seeded multi-record genome: (headers, mixed-case bases, FASTA text).

    Uniform A/C/G/T background; per 20 kbp one lowercase soft-masked stretch
    of 100-5,000 bp; per 100 kbp one short N-run of 1-40 bp (windows kept,
    k-mers become [UNK]) and one long N-run of 600-20,000 bp (windows
    dropped).  The counts are fixed, so every round carries the same work.
    """
    rng = np.random.default_rng([seed, 3, index])
    alphabet = np.frombuffer(b"ACGT", dtype=np.uint8)
    headers, records, lines = [], [], []
    for r, n in enumerate(lengths):
        seq = alphabet[rng.integers(0, 4, size=n)]
        for _ in range(n // 20_000):
            at, span = int(rng.integers(0, n)), int(rng.integers(100, 5_001))
            seq[at : at + span] |= 0x20                     # to lowercase
        for lo, hi in ((1, 41), (600, 20_001)):
            for _ in range(max(1, n // 100_000)):
                at, span = int(rng.integers(0, n)), int(rng.integers(lo, hi))
                seq[at : at + span] = ord("N")
        bases = seq.tobytes().decode("ascii")
        header = f"chr{r + 1} synthetic seed={seed} round={index}"
        headers.append(header)
        records.append(bases)
        lines.append(">" + header)
        lines.extend(bases[i : i + FASTA_LINE] for i in range(0, n, FASTA_LINE))
    return headers, records, "\n".join(lines) + "\n"
