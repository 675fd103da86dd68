"""Command-line surface: train / decode / vote / eval / oracle / run.

``train``, ``decode``, ``vote`` and ``eval`` also read their flags from a
flags file: ``--config FILE`` names a JSON object whose keys are flag names
with underscores for dashes (``"add_k"``, ``"lowercase"``, ``"sign_test"``).
The file's values become the flags' defaults, so they are converted and
checked exactly like the same flags typed on the command line, and an
explicit flag overrides the file.  A ``null`` value leaves the flag at its
default.  Keys that name no flag of the command are ignored, so one file can
serve several commands.  (``run --config`` is the experiment config instead.)

Exit codes: 0 success; 1 usage, including a bad flag value from a flags
file; 2 I/O, including a missing flags file; 3 validation, including a flags
file that is not JSON or not a JSON object; 4 oracle budget exceeded.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import __version__
from .config import ConfigError, load_config, parse_decode_spec, parse_voter_spec
from .decode import CandidateSet, DecodeSpec, ScoredSequence, beam_search, sample_sequences
from .formats import (
    METRIC_GROUPS,
    CandidateRecord,
    FileFormatError,
    join_by_id,
    read_candidates,
    read_corpus_lines,
    read_dataset,
    read_hypotheses,
    read_tabular_entries,
    read_vector_file,
    report_columns,
    vectors_for_vocab,
    write_candidates,
    write_enumeration,
    write_report_json,
    write_report_tsv,
    write_votes,
)
from .harness import (
    adhoc_vocab,
    candidate_record,
    decode_row,
    derive_seed,
    file_ids,
    plain_tokens,
    require_candidates,
    row_voters,
    run_experiment,
    source_context,
    tabular_model_from_text,
    train_on_lines,
    vote_record,
)
from .metrics import evaluate_system, paired_bootstrap, sign_test
from .models import ModelFormatError, load_model, save_model
from .oracle import BudgetExceededError, enumerate_distribution, exact_map, exact_vote
from .sequences import UNK_MARK, Vocabulary, detokenize
from .voting import SIMILARITY_KINDS, SimilaritySpec, range_vote

# bench/tracing.py patches load_config, run_experiment, beam_search,
# sample_sequences, range_vote, evaluate_system and paired_bootstrap by
# their names in this module, so each stays bound here even when unused.


def _file_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fp:
        try:
            data = json.load(fp)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: flag config must be a JSON object")
    return data


def _read_flag_file(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Eager ``--config`` callback: the file's values become the command's flag defaults."""
    if path is None:
        return
    cfg = _file_config(path)
    names = {opt.lstrip("-").replace("-", "_"): p.name for p in ctx.command.params if p is not param for opt in p.opts}
    ctx.default_map = {names[key]: value for key, value in cfg.items() if key in names and value is not None}


_flag_file = click.option(
    "--config",
    type=click.Path(),
    is_eager=True,
    expose_value=False,
    callback=_read_flag_file,
    help="JSON object of flag defaults, keyed by flag name (underscores for dashes).",
)


def _load_cli_model(model_path: str | None, tabular_path: str | None, lowercase: bool):
    if (model_path is None) == (tabular_path is None):
        raise click.UsageError("provide exactly one of --model / --tabular")
    if model_path is not None:
        with open(model_path, encoding="utf-8") as fp:
            return load_model(fp)
    return tabular_model_from_text(read_tabular_entries(tabular_path), lowercase=lowercase)


def _sim_spec(kind: str, n: int | None, max_n: int | None, vectors: str | None, vocab: Vocabulary) -> SimilaritySpec:
    spec = SimilaritySpec(kind=kind, n=n, max_n=max_n, vector_path=vectors)
    if spec.kind == "embed_cosine":
        if vectors is None:
            raise click.UsageError("--sim embed_cosine needs --vectors FILE")
        spec = replace(spec, vectors=vectors_for_vocab(read_vector_file(vectors), vocab))
    return spec


@click.group()
@click.version_option(version=__version__, prog_name="votedecode")
def cli():
    """Pick representative sequence-model outputs by range voting."""


# --- train ------------------------------------------------------------------

@cli.command()
@click.option("--corpus", type=click.Path(), required=True, help="Training corpus, one sentence per line.")
@click.option("--out", type=click.Path(), required=True, help="Where to write the model file.")
@click.option("--order", type=int, default=2, show_default=True, help="N-gram order.")
@click.option("--add-k", type=float, default=0.0, show_default=True, help="Add-k smoothing constant (0 = MLE).")
@click.option("--max-vocab", type=int, default=None, help="Keep only the most common words.")
@click.option("--lowercase/--no-lowercase", default=False, help="Lowercase before vocabulary lookup.")
@_flag_file
def train(corpus, out, order, add_k, max_vocab, lowercase):
    """Train an add-k n-gram model and save it."""
    lines = read_corpus_lines(corpus)
    model = train_on_lines(lines, order, add_k, max_vocab, lowercase)
    with open(out, "w", encoding="utf-8") as fp:
        save_model(model, fp)
    click.echo(f"trained order-{order} model on {len(lines)} lines ({model.vocab.size} word vocabulary) -> {out}")


# --- decode -------------------------------------------------------------------

@cli.command()
@click.option("--model", "model_path", type=click.Path(), default=None, help="N-gram model file.")
@click.option("--tabular", "tabular_path", type=click.Path(), default=None, help="Tabular distribution file.")
@click.option("--dataset", type=click.Path(), required=True, help="Inputs (line-delimited JSON).")
@click.option("--out", type=click.Path(), required=True, help="Candidates file to write.")
@click.option("--strategy", type=click.Choice(["beam", "ancestral", "top_k", "nucleus"]), default="beam",
              show_default=True)
@click.option("--beam-size", type=int, default=None)
@click.option("--max-len", type=int, default=None)
@click.option("--scoring", type=click.Choice(["logprob", "length_normalized"]), default=None)
@click.option("--diverse-gamma", type=float, default=None, help="Sibling rank penalty (0 disables).")
@click.option("--filter-copies", type=float, default=None, help="Copy-filter threshold in [0,1].")
@click.option("--count", type=int, default=None, help="Number of samples (sampling strategies).")
@click.option("--top-k", type=int, default=None)
@click.option("--top-p", type=float, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--lowercase/--no-lowercase", default=False)
@_flag_file
def decode(model_path, tabular_path, dataset, out, strategy, beam_size, max_len, scoring,
           diverse_gamma, filter_copies, count, top_k, top_p, seed, lowercase):
    """Generate candidates per input by beam search or sampling."""
    # The flags become one decode entry of a run config; that parser fills the unset ones and checks them.
    entry = {"name": "decode", "kind": "beam"}
    if strategy != "beam":
        entry.update(kind="sample", strategy=strategy, count=1)
    flags = dict(beam_size=beam_size, max_len=max_len, scoring=scoring, diverse_gamma=diverse_gamma,
                 filter_copies=filter_copies, count=count, top_k=top_k, top_p=top_p)
    entry.update((key, value) for key, value in flags.items() if value is not None)
    spec = parse_decode_spec(entry, "decode")
    model = _load_cli_model(model_path, tabular_path, lowercase)
    records = []
    for ri, row in enumerate(read_dataset(dataset)):
        context = source_context(row.source, model.vocab, lowercase)
        cands = require_candidates(spec, row.id, decode_row(model, spec, context, derive_seed(seed, 1, 0, ri)))
        records.append(candidate_record(row.id, row.source, cands, model.vocab))
    with open(out, "w", encoding="utf-8") as fp:
        write_candidates(records, fp)
    click.echo(f"decoded {len(records)} inputs -> {out}")


# --- vote ---------------------------------------------------------------------

@cli.command()
@click.option("--candidates", "candidates_path", type=click.Path(), required=True,
              help="Candidates file (decode output).")
@click.option("--voters", "voters_flag", type=str, default="same", show_default=True,
              help="same | file:PATH | beam:K | sample:N[:strategy]. Voters inherit every search setting "
                   "they do not set: here --max-len, logprob scoring, no diversity penalty and no copy filter.")
@click.option("--sim", "sim_kind", type=click.Choice(SIMILARITY_KINDS), required=True)
@click.option("--n", type=int, default=None, help="N-gram order for prec/overl.")
@click.option("--max-n", type=int, default=None, help="Highest n-gram order for BLEU kinds.")
@click.option("--vectors", type=click.Path(), default=None, help="Token vector table for embed_cosine.")
@click.option("--out", type=click.Path(), required=True, help="Vote results file to write.")
@click.option("--contributions/--no-contributions", default=False, help="Keep the per-voter contribution matrix.")
@click.option("--model", "model_path", type=click.Path(), default=None, help="Model for beam:/sample: voters.")
@click.option("--tabular", "tabular_path", type=click.Path(), default=None)
@click.option("--max-len", type=int, default=50, show_default=True, help="Decode length for regenerated voters.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--lowercase/--no-lowercase", default=False)
@_flag_file
def vote(candidates_path, voters_flag, sim_kind, n, max_n, vectors, out, contributions,
         model_path, tabular_path, max_len, seed, lowercase):
    """Run the range-voting election over decoded candidates."""
    cand_records = read_candidates(candidates_path)
    voter_file, voter_records, voter_spec, model = [], None, None, None
    if voters_flag.startswith("file:"):
        voter_path = voters_flag[len("file:"):]
        voter_file = read_candidates(voter_path)
        voter_records = join_by_id([rec.id for rec in cand_records], [(rec.id, rec) for rec in voter_file], voter_path)
    elif voters_flag != "same":
        voter_spec = parse_voter_spec(voters_flag)
        voter_decode = DecodeSpec(max_len=max_len)  # the decode regenerated voters inherit from
        model = _load_cli_model(model_path, tabular_path, lowercase)

    if model is not None:
        vocab = model.vocab
    else:
        vocab = adhoc_vocab(tokens for rec in cand_records + voter_file for tokens, _ in rec.candidates)
    sim = _sim_spec(sim_kind, n, max_n, vectors, vocab)

    def to_set(record: CandidateRecord) -> CandidateSet:
        return CandidateSet(tuple(ScoredSequence(file_ids(tokens, vocab), lp) for tokens, lp in record.candidates))

    if model is not None:  # the model's vocabulary would turn an unknown token into UNK
        for rec in cand_records:
            unknown = [t for tokens, _ in rec.candidates for t in tokens if t != UNK_MARK and t not in vocab]
            if unknown:
                raise FileFormatError(f"{candidates_path}: input {rec.id!r}: unknown token {unknown[0]!r}")

    results = []
    for ri, rec in enumerate(cand_records):
        cands = to_set(rec)
        if voter_records is not None:
            voters = to_set(voter_records[ri])
        elif voter_spec is not None:
            context = source_context(rec.source, vocab, lowercase)
            voters = row_voters(model, voter_decode, voter_spec, context, cands, derive_seed(seed, 2, 0, ri))
        else:
            voters = cands
        results.append(vote_record(rec.id, range_vote(cands, voters, sim, with_contributions=contributions), vocab))
    with open(out, "w", encoding="utf-8") as fp:
        write_votes(results, fp)
    click.echo(f"voted on {len(results)} inputs with {sim.name} -> {out}")


# --- eval ---------------------------------------------------------------------

@cli.command(name="eval")
@click.option("--hyps", "hyps_path", type=click.Path(), default=None,
              help="Candidates or votes file; the top entry per input is scored.")
@click.option("--dataset", type=click.Path(), default=None, help="References (and sources) by input id.")
@click.option("--system", type=str, default=None, help="Label for the report row (default: the --hyps file stem).")
@click.option("--metric", type=click.Choice(list(METRIC_GROUPS)), default="all", show_default=True)
@click.option("--max-n", type=int, default=4, show_default=True, help="Highest BLEU order.")
@click.option("--copy-threshold", type=float, default=0.5, show_default=True)
@click.option("--lowercase/--no-lowercase", default=False, help="Lowercase references/sources.")
@click.option("--out-tsv", type=click.Path(), default=None, help="Report TSV (default stdout).")
@click.option("--out-json", type=click.Path(), default=None, help="Also write the report as JSON.")
@click.option("--compare", "compare_path", type=click.Path(), default=None,
              help="Second system for a paired bootstrap test.")
@click.option("--n-bootstrap", type=int, default=1000, show_default=True, help="Bootstrap resamples.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--sign-test", "sign_counts", type=int, nargs=2, default=None,
              help="Two win counts (ties discarded): print the two-tailed sign-test p-value.")
@_flag_file
def eval_cmd(hyps_path, dataset, system, metric, max_n, copy_threshold, lowercase,
             out_tsv, out_json, compare_path, n_bootstrap, seed, sign_counts):
    """Score selected outputs against references."""
    if sign_counts is not None:
        click.echo(repr(sign_test(*sign_counts)))
        return
    if hyps_path is None or dataset is None:
        raise click.UsageError("--hyps and --dataset are required")
    system = system or Path(hyps_path).stem

    rows = read_dataset(dataset)
    hyps = read_hypotheses(hyps_path)
    ids, hyp_tokens = map(list, zip(*hyps))
    aligned_refs, sources = plain_tokens(join_by_id(ids, [(row.id, row) for row in rows], dataset), lowercase)

    if compare_path is not None:
        aligned_b = join_by_id(ids, read_hypotheses(compare_path), compare_path)
        p = paired_bootstrap(
            hyp_tokens,
            aligned_b,
            aligned_refs,
            max_n=max_n,
            n_bootstrap=n_bootstrap,
            seed=seed,
        )
        click.echo(repr(p))
        return

    row = evaluate_system(
        system,
        hyp_tokens,
        aligned_refs,
        sources,
        max_n=max_n,
        copy_threshold=copy_threshold,
    )
    columns = [col for col in report_columns(max_n) if col == "system" or METRIC_GROUPS[metric](col)]
    if out_tsv:
        with open(out_tsv, "w", encoding="utf-8") as fp:
            write_report_tsv([row], columns, fp)
    else:
        buf = io.StringIO()
        write_report_tsv([row], columns, buf)
        click.echo(buf.getvalue(), nl=False)
    if out_json:
        with open(out_json, "w", encoding="utf-8") as fp:
            write_report_json([row], fp)


# --- oracle ---------------------------------------------------------------------

@cli.group()
def oracle():
    """Exact brute-force references for small models."""


def _oracle_model(fn):
    """The model, length and budget flags every oracle command takes."""
    for option in reversed([
        click.option("--model", "model_path", type=click.Path(), default=None, help="N-gram model file."),
        click.option("--tabular", "tabular_path", type=click.Path(), default=None, help="Tabular distribution file."),
        click.option("--lowercase/--no-lowercase", default=False),
        click.option("--max-len", type=int, required=True, help="Longest sequence to enumerate."),
        click.option("--budget", type=int, default=10**6, show_default=True, help="Node expansion budget."),
    ]):
        fn = option(fn)
    return fn


@oracle.command(name="enumerate")
@_oracle_model
@click.option("--floor", type=float, default=0.0, show_default=True, help="Prune prefixes below this mass.")
@click.option("--out", type=click.Path(), default=None, help="Enumeration file (default stdout).")
def enumerate_cmd(model_path, tabular_path, lowercase, max_len, budget, floor, out):
    """List all sequences up to --max-len with their probabilities."""
    model = _load_cli_model(model_path, tabular_path, lowercase)
    dist = enumerate_distribution(model, max_len, prob_floor=floor, node_budget=budget)
    pairs = [(detokenize(e.tokens, model.vocab), math.exp(e.logprob)) for e in dist.entries]
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            write_enumeration(pairs, fp)
        click.echo(f"enumerated {len(pairs)} sequences (mass {dist.total_mass!r}) -> {out}")
    else:
        buf = io.StringIO()
        write_enumeration(pairs, buf)
        click.echo(buf.getvalue(), nl=False)


@oracle.command(name="map")
@_oracle_model
def map_cmd(model_path, tabular_path, lowercase, max_len, budget):
    """Print the most likely sequence by exhaustive enumeration."""
    model = _load_cli_model(model_path, tabular_path, lowercase)
    best = exact_map(model, max_len, node_budget=budget)
    click.echo(json.dumps({"sequence": detokenize(best.tokens, model.vocab), "logprob": best.logprob}, sort_keys=True))


@oracle.command(name="vote-winner")
@_oracle_model
@click.option("--sim", "sim_kind", type=click.Choice(SIMILARITY_KINDS), required=True)
@click.option("--n", type=int, default=None)
@click.option("--max-n", type=int, default=None)
@click.option("--vectors", type=click.Path(), default=None)
def vote_winner(model_path, tabular_path, lowercase, max_len, budget, sim_kind, n, max_n, vectors):
    """Print the range-voting winner over the full enumerated support."""
    model = _load_cli_model(model_path, tabular_path, lowercase)
    sim = _sim_spec(sim_kind, n, max_n, vectors, model.vocab)
    result = exact_vote(model, sim, max_len, node_budget=budget)
    click.echo(json.dumps(
        {
            "sequence": detokenize(result.winner.tokens, model.vocab),
            "logprob": result.winner.logprob,
            "score": result.winner_score,
        },
        sort_keys=True,
    ))


# --- run ---------------------------------------------------------------------

@cli.command()
@click.option("--config", "config_path", type=click.Path(), required=True, help="Experiment config (JSON).")
@click.option("--output-dir", type=click.Path(), default=None, help="Override the config's output directory.")
@click.option("--seed", type=int, default=None, help="Override the config's seed.")
@click.option("--workers", type=int, default=None, help="Accepted, ignored; rows run in order.")
def run(config_path, output_dir, seed, workers):
    """Run a full experiment grid and write the evaluation report."""
    config = load_config(config_path)
    if seed is not None:
        config = replace(config, seed=seed)
    report, out = run_experiment(config, output_dir=output_dir)
    click.echo(f"wrote {len(report)} system rows -> {out / 'report.tsv'}")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=sys.argv[1:] if argv is None else argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.Abort:
        click.echo("aborted", err=True)
        return 1
    except BudgetExceededError as exc:
        click.echo(f"budget error: {exc}", err=True)
        return 4
    except (ConfigError, FileFormatError, ModelFormatError, ValueError) as exc:
        click.echo(f"validation error: {exc}", err=True)
        return 3
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
