import json
import os
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fewintent.corpus import (
    Dataset,
    IntentLabel,
    LabeledUtterance,
    build_ood,
    load_dataset,
    normalize_label,
    sample_few_shot,
    split_dev,
    write_jsonl,
)
from fewintent.errors import DataError

from conftest import make_dataset


class TestNormalizeLabel:
    def test_underscores(self):
        assert normalize_label("card_arrival") == "card arrival"

    def test_identity(self):
        assert normalize_label("balance") == "balance"

    def test_camel_case(self):
        # Hand application of the split rule: Play|Music -> "play music".
        assert normalize_label("PlayMusic") == "play music"

    def test_hyphens_and_spaces(self):
        assert normalize_label("credit--card  limit") == "credit card limit"

    def test_empty_raises(self):
        with pytest.raises(DataError):
            normalize_label("   ")
        with pytest.raises(DataError):
            normalize_label("___")

    @given(st.text(alphabet=st.characters(categories=("Lu", "Ll", "Nd"), max_codepoint=0x2FF), min_size=1))
    def test_idempotent(self, raw):
        once = normalize_label(raw)
        assert normalize_label(once) == once


class TestLoadDataset:
    def test_csv_two_rows(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,category\npay my bill,billing\ncheck balance,balance\n")
        data = load_dataset(p, "csv")
        assert data.n_intents == 2
        assert len(data.examples) == 2
        assert data.labels[0].surface == "billing"

    def test_jsonl_with_domain(self, tmp_path):
        p = tmp_path / "d.jsonl"
        rows = [
            {"text": "set an alarm", "label": "alarm_set", "domain": "alarm"},
            {"text": "wake me up", "label": "alarm_set", "domain": "alarm"},
            {"text": "play a song", "label": "PlayMusic"},
        ]
        p.write_text("\n".join(json.dumps(r) for r in rows))
        data = load_dataset(p, "jsonl")
        assert data.n_intents == 2
        assert data.labels[1].surface == "play music"
        assert data.examples[0].domain == "alarm"
        assert data.examples[2].domain is None

    def test_empty_text_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,category\nok,fine\n   ,oops\n")
        with pytest.raises(DataError, match=r":3"):
            load_dataset(p, "csv")

    def test_bad_json_reports_line(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"text": "hi", "label": "a"}\nnot json\n')
        with pytest.raises(DataError, match=r":2"):
            load_dataset(p, "jsonl")

    @pytest.mark.parametrize(
        "record",
        [
            {"text": None, "label": {"b": 1}},
            {"text": None, "label": "a"},
            {"text": ["hi"], "label": "a"},
            {"text": 5, "label": "a"},
            {"text": "hi", "label": None},
            {"text": "hi", "label": {"b": 1}},
            {"text": "hi", "label": ["a"]},
            {"text": "hi", "label": "a", "domain": 3},
            {"text": "hi", "label": "a", "domain": ["d"]},
            {"text": "hi", "label": "a", "domain": {"d": 1}},
        ],
    )
    def test_non_string_field_reports_line(self, tmp_path, record):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"text": "hi", "label": "a"}) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(DataError, match=r"d\.jsonl:2: .*must be"):
            load_dataset(p, "jsonl")

    def test_null_domain_is_absent(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(json.dumps({"text": "hi", "label": "a", "domain": None}) + "\n")
        assert load_dataset(p, "jsonl").examples[0].domain is None

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_dataset(tmp_path / "nope.csv", "csv")

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,category\n")
        with pytest.raises(DataError, match="no examples"):
            load_dataset(p, "csv")

    def test_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("utterance,label\nhi,a\n")
        with pytest.raises(DataError, match="header"):
            load_dataset(p, "csv")

    def test_inventory_fixes_order(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,category\nhello,beta\nbye,alpha\n")
        inv = tmp_path / "labels.txt"
        inv.write_text("alpha\nbeta\n")
        data = load_dataset(p, "csv", inventory=inv)
        assert [l.surface for l in data.labels] == ["alpha", "beta"]
        assert data.examples[0].intent_id == 1

    def test_inventory_rejects_unknown_label(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("text,category\nhello,gamma\n")
        inv = tmp_path / "labels.txt"
        inv.write_text("alpha\n")
        with pytest.raises(DataError, match="gamma"):
            load_dataset(p, "csv", inventory=inv)


BANKING77 = os.environ.get("FEWINTENT_BANKING77", "")


@pytest.mark.skipif(not Path(BANKING77 or "missing").is_file(), reason="BANKING77 csv not available")
def test_banking77_statistics():
    data = load_dataset(BANKING77, "csv")
    assert len(data.examples) == 13083
    assert data.n_intents == 77


class TestSampleFewShot:
    def test_counts(self):
        data = make_dataset(n_intents=7, per_intent=9)
        out = sample_few_shot(data, 5, seed=1)
        assert len(out.examples) == 35
        per = {}
        for ex in out.examples:
            per[ex.intent_id] = per.get(ex.intent_id, 0) + 1
        assert set(per.values()) == {5}

    def test_deterministic(self):
        data = make_dataset(n_intents=5, per_intent=8)
        a = sample_few_shot(data, 3, seed=42)
        b = sample_few_shot(data, 3, seed=42)
        assert a.examples == b.examples

    def test_insufficient_names_intent(self):
        data = make_dataset(n_intents=3, per_intent=3)
        with pytest.raises(DataError, match="intent_0"):
            sample_few_shot(data, 10, seed=0)

    @given(shots=st.integers(1, 4), seed=st.integers(0, 100))
    def test_subset_of_source(self, shots, seed):
        data = make_dataset(n_intents=3, per_intent=4)
        out = sample_few_shot(data, shots, seed)
        source = list(data.examples)
        for ex in out.examples:
            source.remove(ex)  # raises if sampled with replacement


class TestSplitDev:
    @pytest.mark.parametrize("total,fraction,expected_dev", [(100, 0.10, 10), (10, 0.10, 1)])
    def test_sizes(self, total, fraction, expected_dev):
        data = make_dataset(n_intents=2, per_intent=total // 2)
        train, dev = split_dev(data, fraction, seed=0)
        assert len(dev.examples) == expected_dev
        assert len(train.examples) == total - expected_dev

    def test_deterministic(self, toy_dataset):
        a = split_dev(toy_dataset, 0.25, seed=9)
        b = split_dev(toy_dataset, 0.25, seed=9)
        assert a[0].examples == b[0].examples and a[1].examples == b[1].examples

    def test_shared_inventory(self, toy_dataset):
        train, dev = split_dev(toy_dataset, 0.25, seed=0)
        assert train.labels == toy_dataset.labels == dev.labels

    @given(seed=st.integers(0, 50), fraction=st.floats(0.05, 0.95))
    def test_disjoint_union(self, seed, fraction):
        data = make_dataset(n_intents=3, per_intent=5)
        train, dev = split_dev(data, fraction, seed)
        combined = sorted([*train.examples, *dev.examples], key=lambda e: e.text)
        assert combined == sorted(data.examples, key=lambda e: e.text)

    def test_bad_fraction(self, toy_dataset):
        with pytest.raises(DataError):
            split_dev(toy_dataset, 1.0, seed=0)


class TestWriteJsonl:
    def test_sorted_keys_one_line_each(self, tmp_path):
        path = tmp_path / "r.jsonl"
        assert write_jsonl(path, iter([{"b": 1, "a": "caf\u00e9"}, {}])) == 2
        assert path.read_bytes() == b'{"a": "caf\\u00e9", "b": 1}\n{}\n'

    def test_no_records_is_an_empty_file(self, tmp_path):
        assert write_jsonl(tmp_path / "r.jsonl", []) == 0
        assert (tmp_path / "r.jsonl").read_bytes() == b""


def _single_intent_dataset(label, texts, domain):
    labels = (IntentLabel(0, label, label),)
    return Dataset(labels, tuple(LabeledUtterance(t, 0, domain) for t in texts), name=label)


class TestBuildOod:
    def test_excluded_domain_dropped(self, toy_dataset):
        a = _single_intent_dataset("alarm set", ["set alarm", "alarm please"], "alarm")
        b = _single_intent_dataset("pay bill", ["pay my bill"], "Banking")
        ood = build_ood(toy_dataset, [a, b], ["banking"])
        assert ood.n_intents == 1
        assert all(ex.domain == "alarm" for ex in ood.examples)

    def test_disjoint_union_counts(self, toy_dataset):
        a = make_dataset(n_intents=3, per_intent=1, name="a")
        b = _single_intent_dataset("weather", ["rain today"], "weather")
        ood = build_ood(toy_dataset, [a, b])
        assert ood.n_intents == 4
        assert len(ood.examples) == 4

    def test_shared_label_merged(self, toy_dataset):
        a = _single_intent_dataset("alarm set", ["set alarm"], "d1")
        b = _single_intent_dataset("alarm set", ["wake me"], "d2")
        ood = build_ood(toy_dataset, [a, b])
        assert ood.n_intents == 1
        assert len(ood.examples) == 2

    def test_empty_result_raises(self, toy_dataset):
        a = _single_intent_dataset("alarm set", ["set alarm"], "alarm")
        with pytest.raises(DataError):
            build_ood(toy_dataset, [a], ["alarm"])

    def test_intent_set_is_union_of_survivors(self, toy_dataset):
        a = make_dataset(n_intents=2, per_intent=1, name="a")  # domains dom0/dom1
        b = _single_intent_dataset("weather", ["rain"], "dom0")
        ood = build_ood(toy_dataset, [a, b], ["dom0"])
        # everything in dom0 is gone, including b's only example
        assert {l.surface for l in ood.labels} == {"intent 1"}
