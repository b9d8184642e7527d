"""Intent dataset ingestion: label normalization, few-shot sampling, dev splits,
and out-of-domain pooling.

File formats: CSV with a ``text,category`` header, or JSONL records carrying
string ``text`` and ``label`` fields and an optional string ``domain``. An
optional label-inventory sidecar (one raw label per line) pins the label
order; otherwise labels are enumerated in first-appearance order.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError

_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_MULTISPACE = re.compile(r"\s+")


def normalize_label(raw: str) -> str:
    """Turn a raw label name into the word sequence fed to the model.

    Camel-case boundaries are split, underscores and hyphens become single
    spaces, the result is lowercased and space-collapsed.
    """
    if not raw or not raw.strip():
        raise DataError("label name is empty")
    text = _CAMEL_BOUNDARY.sub(" ", raw)
    text = text.replace("_", " ").replace("-", " ")
    text = _MULTISPACE.sub(" ", text).strip().lower()
    if not text:
        raise DataError(f"label {raw!r} is empty after normalization")
    return text


@dataclass(frozen=True)
class IntentLabel:
    """One intent: a contiguous integer id plus its raw and normalized names."""

    id: int
    raw_name: str
    surface: str


def check_label_ids(labels: Sequence[IntentLabel]) -> None:
    """Raise `DataError` unless the labels' ids are 0..n-1 in list order, so
    an intent id indexes its own label."""
    for i, lab in enumerate(labels):
        if lab.id != i:
            raise DataError(f"label ids must be contiguous from 0, got {lab.id} at {i}")


@dataclass(frozen=True)
class LabeledUtterance:
    text: str
    intent_id: int
    domain: str | None = None


@dataclass(frozen=True)
class Dataset:
    """An immutable labeled corpus with a fixed intent inventory."""

    labels: tuple[IntentLabel, ...]
    examples: tuple[LabeledUtterance, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.labels) < 1:
            raise DataError(f"dataset {self.name!r} has no intents")
        check_label_ids(self.labels)
        for lab in self.labels:
            if not lab.surface or "_" in lab.surface or lab.surface != lab.surface.lower():
                raise DataError(f"bad label surface {lab.surface!r}")
        n = len(self.labels)
        for ex in self.examples:
            if not ex.text.strip():
                raise DataError("utterance text is empty")
            if not 0 <= ex.intent_id < n:
                raise DataError(f"intent id {ex.intent_id} outside [0, {n})")

    @property
    def n_intents(self) -> int:
        return len(self.labels)

    def examples_by_intent(self) -> dict[int, list[int]]:
        """Example indices grouped by intent id."""
        by_intent: dict[int, list[int]] = {lab.id: [] for lab in self.labels}
        for idx, ex in enumerate(self.examples):
            by_intent[ex.intent_id].append(idx)
        return by_intent


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> DataError:
    return DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def inventory_labels(path: str | Path) -> tuple[IntentLabel, ...]:
    """The intents of a label-inventory sidecar (one raw label per line), in
    file order; raw names that normalize to one surface are one intent,
    named by the first."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None
    labels: dict[str, IntentLabel] = {}  # by surface, in first-appearance order
    for raw in filter(None, (line.strip() for line in text.splitlines())):
        surface = normalize_label(raw)
        if surface not in labels:
            labels[surface] = IntentLabel(len(labels), raw, surface)
    if not labels:
        raise DataError(f"label inventory {path} is empty")
    return tuple(labels.values())


def checked_decode(path: Path, rows: Iterable) -> Iterable:
    """Iterate `rows` read from the text file `path`, turning a UTF-8 decode
    error into a DataError that names the file."""
    try:
        yield from rows
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _csv_records(path: Path, fh) -> Iterable[list[str]]:
    """CSV records of an open file; a malformed record, such as a field over
    the csv module's size limit, is a DataError naming its line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: bad CSV record ({exc})") from None


def _rows_from_csv(path: Path) -> Iterable[tuple[int, str, str, str | None]]:
    with path.open(newline="", encoding="utf-8") as fh:
        reader = _csv_records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 2 or header[0].strip() != "text" or header[1].strip() != "category":
            raise DataError(f"{path}: expected header 'text,category', got {','.join(header)!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise DataError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            yield lineno, row[0], row[1], None


def json_line(line: str, where: str):
    """The JSON value of one line of a JSONL stream; malformed JSON, or JSON
    nested past the recursion limit, is a DataError naming `where`."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{where}: invalid JSON ({exc.msg})") from None
    except RecursionError:
        raise DataError(f"{where}: invalid JSON (nested too deeply)") from None


def _rows_from_jsonl(path: Path) -> Iterable[tuple[int, str, str, str | None]]:
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            rec = json_line(line, f"{path}:{lineno}")
            if not isinstance(rec, dict) or "text" not in rec or "label" not in rec:
                raise DataError(f"{path}:{lineno}: record needs 'text' and 'label' fields")
            text, label, domain = rec["text"], rec["label"], rec.get("domain")
            if not all(isinstance(v, str) for v in (text, label, "" if domain is None else domain)):
                raise DataError(f"{path}:{lineno}: text and label must be strings, domain a string or null")
            yield lineno, text, label, domain


def write_jsonl(path: str | Path, records: Iterable[dict]) -> int:
    """Write one sorted-key JSON object a line, UTF-8 with "\\n" line ends on
    every platform; returns the number of records."""
    count = 0
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        for count, rec in enumerate(records, start=1):  # streamed: one record in memory at a time
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return count


def write_dataset_jsonl(data: Dataset, path: Path):
    """Write `data` as the JSONL records `load_dataset` reads, each label by its raw name."""
    write_jsonl(path, (
        {"text": ex.text, "label": data.labels[ex.intent_id].raw_name}
        | ({} if ex.domain is None else {"domain": ex.domain})
        for ex in data.examples
    ))


def load_dataset(
    path: str | Path,
    format: str = "csv",
    inventory: str | Path | None = None,
    name: str | None = None,
) -> Dataset:
    """Load a labeled intent dataset from disk.

    Labels are keyed on their normalized surface; two raw names normalizing to
    the same surface map to the same intent.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found: {path}")
    if format == "csv":
        rows = _rows_from_csv(path)
    elif format == "jsonl":
        rows = _rows_from_jsonl(path)
    else:
        raise DataError(f"unknown dataset format {format!r} (expected csv or jsonl)")

    fixed_inventory = inventory is not None
    labels = {lab.surface: lab for lab in inventory_labels(inventory)} if fixed_inventory else {}

    examples: list[LabeledUtterance] = []
    for lineno, text, raw_label, domain in checked_decode(path, rows):
        if not text.strip():
            raise DataError(f"{path}:{lineno}: empty utterance text")
        if not raw_label.strip():
            raise DataError(f"{path}:{lineno}: empty label")
        surface = normalize_label(raw_label)
        if surface not in labels:
            if fixed_inventory:
                raise DataError(f"{path}:{lineno}: label {raw_label!r} not in inventory")
            labels[surface] = IntentLabel(len(labels), raw_label, surface)
        domain_tag = str(domain) if domain is not None else None
        examples.append(LabeledUtterance(text.strip(), labels[surface].id, domain_tag))

    if not examples:
        raise DataError(f"{path}: no examples")
    return Dataset(tuple(labels.values()), tuple(examples), name=name or path.stem)


def sample_few_shot(data: Dataset, shots: int, seed: int) -> Dataset:
    """Sample exactly `shots` examples per intent, uniformly without replacement."""
    if shots < 1:
        raise DataError(f"shots must be >= 1, got {shots}")
    rng = np.random.default_rng(seed)
    picked: list[LabeledUtterance] = []
    by_intent = data.examples_by_intent()
    for lab in data.labels:
        pool = by_intent[lab.id]
        if len(pool) < shots:
            raise DataError(
                f"intent {lab.raw_name!r} has {len(pool)} examples, needs {shots}"
            )
        chosen = rng.choice(len(pool), size=shots, replace=False)
        picked.extend(data.examples[pool[i]] for i in chosen)
    return Dataset(data.labels, tuple(picked), name=f"{data.name}:{shots}shot")


def split_dev(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Global random split into (train, dev); dev gets floor(fraction * size)."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"dev fraction must be in (0, 1), got {fraction}")
    total = len(data.examples)
    if total == 0:
        raise DataError("cannot split an empty dataset")
    # Tiny epsilon so e.g. 0.29 * 100 floors to the intended 29.
    n_dev = int(fraction * total + 1e-9)
    perm = np.random.default_rng(seed).permutation(total)
    dev_idx = set(int(i) for i in perm[:n_dev])
    train_ex = tuple(ex for i, ex in enumerate(data.examples) if i not in dev_idx)
    dev_ex = tuple(ex for i, ex in enumerate(data.examples) if i in dev_idx)
    if not train_ex:
        raise DataError(f"fraction {fraction} leaves no training examples")
    train = Dataset(data.labels, train_ex, name=f"{data.name}:train")
    dev = Dataset(data.labels, dev_ex, name=f"{data.name}:dev")
    return train, dev


def build_ood(
    target: Dataset,
    others: Sequence[Dataset],
    excluded_domains: Iterable[str] = (),
) -> Dataset:
    """Pool `others` into one out-of-domain corpus for `target`.

    Examples whose domain tag matches an excluded domain (case-insensitive)
    are dropped; the surviving label inventories are merged on normalized
    surface and re-enumerated in first-appearance order.
    """
    if not others:
        raise DataError("build_ood needs at least one source dataset")
    excluded = {d.strip().lower() for d in excluded_domains if d.strip()}
    labels: dict[str, IntentLabel] = {}  # by surface, in first-appearance order
    examples: list[LabeledUtterance] = []
    for source in others:
        for ex in source.examples:
            if ex.domain is not None and ex.domain.strip().lower() in excluded:
                continue
            lab = source.labels[ex.intent_id]
            if lab.surface not in labels:
                labels[lab.surface] = IntentLabel(len(labels), lab.raw_name, lab.surface)
            examples.append(LabeledUtterance(ex.text, labels[lab.surface].id, ex.domain))
    if not examples:
        raise DataError("no out-of-domain examples survive the domain filter")
    return Dataset(tuple(labels.values()), tuple(examples), name=f"ood-for-{target.name}")
