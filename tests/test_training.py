"""Training end to end: pinned model bytes and the `train` command's exit codes."""

import hashlib
import io
import random

import pytest
from hypothesis import given, strategies as st

from conftest import corpus_lines, reference_index
from votedecode.cli import main
from votedecode.harness import train_on_lines
from votedecode.models import NGramLM, save_model, train_ngram_lm
from votedecode.sequences import BOS_ID, EOS_ID

WORDS = ["the", "The", "THE", "cat", "Cat", "dog", "sat", "ran", "on", "mat", "ΟΔΟΣ", "Σ", "İzmir", "<unk>", "<bos>",
         "yak", "Yak", "zebra", "Éclair", "ärger"]
SPACES = [" ", "  ", "\t", "\u3000", "\xa0", "\u2028"]


def golden_lines():
    """Seeded lines with mixed case, Greek and dotted capitals, reserved marks, blank lines and rare, tied words."""
    rng = random.Random(1908)
    lines = []
    for _ in range(120):
        words = rng.choices(WORDS, weights=range(len(WORDS), 0, -1), k=rng.randint(0, 9))
        lines.append(rng.choice(["", " "]) + "".join(w + rng.choice(SPACES) for w in words).rstrip(" "))
    return lines


def saved(model):
    fp = io.StringIO()
    save_model(model, fp)
    return fp.getvalue()


def model_bytes(lines, order, lowercase, max_vocab, add_k=0.5):
    return saved(train_on_lines(lines, order, add_k, max_vocab, lowercase)).encode("utf-8")


# sha256 of `save_model` output, recorded with the per-line vocabulary,
# tokenizer and training the one-stream bodies replaced.
GOLDEN = {
    (1, False, 6): "d1bdb125ec3a83a326bb65812fc3835be3c4d249370bb479e2d41d35223a1e70",
    (1, False, None): "e54d7e5c2b9043cb657e973989737823c0c03e37ec82edfdb9411d458ed0b046",
    (1, True, 6): "4604b3a90790354eec566ca22251e7c8bb2b076b69abfa39b2e642ba3e36b3a2",
    (1, True, None): "9df9f155623b55c1c5e38b18bf219888aaeb3e2d9ba6a43553ec7ab51ae16874",
    (2, False, 6): "7662e4895bc7028db62a70e79236d5b7003edd0524713f2517e19d633adb536c",
    (2, False, None): "f77bfe93cd37da4894ac7ddc49cc347042323c655c0b3585506542c88e635460",
    (2, True, 6): "cea4dcff3f729c6e5481755f905611af8df398ca46c0ea278eeaf61294d4f3fc",
    (2, True, None): "e45feccbf392dc835bdfbca05627beb6613e1b1227f65254f71355fbd0830646",
    (3, False, 6): "1876257864c4c0ecc1e7cc20e1fe3b25903d10094d2eb75b1a6d0879adffa6cf",
    (3, False, None): "f35d33ded796c07d5ca3dabfcfbd112bcb1c98af0f6c7796ce87945375c4b44a",
    (3, True, 6): "4227f1ee70837b4152b9b5de8325966435346217b502cba85bea41428259cfed",
    (3, True, None): "50203c27c8b1bad1b572601e2dadfc0c72c14de2eacf7b630270bbe9c2a3dfd2",
}


@pytest.mark.parametrize("order, lowercase, max_vocab", sorted(GOLDEN, key=str))
def test_saved_model_bytes(order, lowercase, max_vocab):
    digest = hashlib.sha256(model_bytes(golden_lines(), order, lowercase, max_vocab)).hexdigest()
    assert digest == GOLDEN[order, lowercase, max_vocab]


def reference_counts(seqs, order):
    """(history, event) counts from a dict of dicts, each line padded with BOS * (order - 1) and ended by EOS."""
    counts = {}
    for seq in seqs:
        padded = (BOS_ID,) * (order - 1) + seq + (EOS_ID,)
        for i in range(order - 1, len(padded)):
            events = counts.setdefault(padded[i - order + 1 : i], {})
            events[padded[i]] = events.get(padded[i], 0) + 1
    return counts


@given(corpus_lines.filter(bool), st.integers(1, 4), st.booleans(), st.sampled_from([None, 0, 1, 3]))
def test_training_matches_the_per_line_reference(lines, order, lowercase, max_vocab):
    model = train_on_lines(lines, order, 0.5, max_vocab, lowercase)
    vocab, seqs = reference_index(lines, lowercase, max_vocab)
    want = NGramLM.from_counts(vocab, order, 0.5, reference_counts(seqs, order))
    assert model.vocab.tokens == vocab.tokens
    assert model.counts == want.counts
    assert saved(model) == saved(want)
    assert train_ngram_lm(seqs, order, 0.5, vocab) == model


@pytest.mark.parametrize(
    "lines, max_vocab, message",
    [([], None, "training corpus is empty"), (["a"], -1, "max_vocab must be >= 0, got -1"),
     ([], -1, "max_vocab must be >= 0, got -1")],
)
def test_training_rejects_with_the_same_message(lines, max_vocab, message):
    with pytest.raises(ValueError, match=message):
        train_on_lines(lines, 2, 0.5, max_vocab, False)


class TestTrainCommand:
    @pytest.fixture
    def corpus(self, tmp_path):
        lines = ["The cat sat", "", "the dog  ran home", "a cat ran"]
        path = tmp_path / "corpus.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return lines, path

    def test_writes_the_saved_model(self, tmp_path, corpus):
        lines, path = corpus
        out = tmp_path / "model.json"
        argv = ["train", "--corpus", str(path), "--out", str(out), "--order", "3", "--add-k", "0.25",
                "--max-vocab", "4", "--lowercase"]
        assert main(argv) == 0
        assert out.read_bytes() == model_bytes(lines, 3, True, 4, add_k=0.25)

    def test_missing_corpus_flag_is_usage(self, tmp_path):
        out = tmp_path / "model.json"
        assert main(["train", "--out", str(out)]) == 1
        assert not out.exists()

    def test_missing_corpus_file_is_io(self, tmp_path):
        out = tmp_path / "model.json"
        assert main(["train", "--corpus", str(tmp_path / "absent.txt"), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [([], "training corpus is empty"), (["--order", "0"], "order must be >= 1"),
         (["--add-k", "nan"], "add_k must be finite and >= 0"), (["--max-vocab", "-1"], "max_vocab must be >= 0")],
    )
    def test_validation_exits_3(self, tmp_path, corpus, capsys, flags, message):
        _, path = corpus
        if not flags:
            path.write_text("", encoding="utf-8")
        out = tmp_path / "model.json"
        assert main(["train", "--corpus", str(path), "--out", str(out), *flags]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()
