"""Command-line surface: train / decode / vote / eval / oracle / run.

``train``, ``decode``, ``vote`` and ``eval`` also read their flags from a
flags file: ``--config FILE`` names a JSON object whose keys are flag names
with underscores for dashes (``"add_k"``, ``"lowercase"``, ``"sign_test"``).
The file's values become the flags' defaults, so they are converted and
checked exactly like the same flags typed on the command line, and an
explicit flag overrides the file.  A value is the text typed for the flag:
a string as it is, any other value (each item of ``sign_test``'s pair too)
as its JSON text, so ``"order": 2.0`` or ``true`` is refused like ``--order
2.0``.  On/off flags (``lowercase``) read that text as click reads a bool:
``false`` and ``"false"`` are off, a list is refused.  A ``null`` value
leaves the flag at its default.  A key that is a flag of another
``votedecode`` command is ignored, so one file can serve several commands; a
key that is a flag of no command is refused with exit 1, naming it, before
anything is read or written.  (``run --config`` is the experiment config
instead.)

A flag typed for a command that would not read it is a usage error, raised
before anything is read or written: ``vote`` and ``oracle vote-winner``
refuse ``--n``, ``--max-n`` or ``--vectors`` where the ``--sim`` kind reads
another (``--n`` for prec/overl, ``--max-n`` for the BLEU kinds,
``--vectors`` for embed_cosine), and ``vote`` refuses ``--model``,
``--tabular``, ``--max-len``, ``--seed`` or ``--lowercase`` with ``same`` or
``file:`` voters, since only voters a model regenerates read them.  Only
typed flags are refused; a flags file's value stays a default, so one file
still serves several commands.

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
from typing import Callable

import click
from click.core import ParameterSource

from . import __version__
from .config import (SIM_KEYS, ConfigError, ExperimentConfig, ModelSpec, load_config, parse_decode_spec,
                     parse_voter_spec)
from .decode import CandidateSet, DecodeSpec, ScoredSequence, beam_search, sample_sequences
from .formats import (
    METRIC_GROUPS,
    CandidateRecord,
    FileFormatError,
    join_by_id,
    load_json,
    read_candidates,
    read_corpus_lines,
    read_dataset,
    read_hypotheses,
    read_tabular_entries,
    read_vector_file,
    report_columns,
    save_outputs,
    write_candidates,
    write_enumeration,
    write_report_json,
    write_report_tsv,
    write_votes,
)
from .harness import (
    adhoc_vocab,
    candidate_records,
    decode_rows,
    elect_rows,
    file_ids,
    keyed_similarity,
    plain_tokens,
    run_experiment,
    source_context,
    tabular_model_from_text,
    train_on_lines,
)
from .metrics import evaluate_system, paired_bootstrap, sign_test
from .models import load_model, save_model
from .oracle import BudgetExceededError, enumerate_distribution, exact_map, exact_vote
from .sequences import UNK_MARK, Vocabulary, detokenize
from .voting import SIMILARITY_KINDS, SimilaritySpec, range_vote

# bench/tracing.py patches load_config, run_experiment, beam_search,
# sample_sequences, range_vote, evaluate_system and paired_bootstrap by
# their names in this module, so each stays bound here even when unused.


def _flag_keys(command: click.Command) -> set[str]:
    """The flags-file key of every flag of ``command`` and of each command under it."""
    keys = {opt.lstrip("-").replace("-", "_") for p in command.params for opt in p.opts}
    for sub in getattr(command, "commands", {}).values():
        keys |= _flag_keys(sub)
    return keys


def _read_flag_file(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Eager ``--config`` callback: the file's values become the command's flag defaults."""
    if path is None:
        return
    cfg = load_json(path, ConfigError)
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: flag config must be a JSON object")
    unknown = sorted(cfg.keys() - _flag_keys(cli))
    if unknown:
        raise click.UsageError(f"{path}: {unknown[0]!r} is not a flag of any votedecode command")
    params = {opt.lstrip("-").replace("-", "_"): p for p in ctx.command.params if p is not param for opt in p.opts}

    def text(value):  # a value as typed on the command line
        return value if isinstance(value, str) else json.dumps(value)

    ctx.default_map = {
        p.name: list(map(text, v)) if p.nargs != 1 and isinstance(v, list) else text(v)
        for k, v in cfg.items() if v is not None and (p := params.get(k)) is not None
    }


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


def _refuse_typed(ctx: click.Context, names, why: str) -> None:
    """A usage error naming the first of the parameters ``names`` typed on the command line; flags-file values pass."""
    for p in ctx.command.params:
        if p.name in names and ctx.get_parameter_source(p.name) is ParameterSource.COMMANDLINE:
            raise click.UsageError(f"{'/'.join(p.opts + p.secondary_opts)} {why}")


def _refuse_unread_sim_flags(ctx: click.Context, kind: str) -> None:
    _refuse_typed(ctx, {"n", "max_n", "vectors"} - SIM_KEYS[kind], f"is not read by --sim {kind}")


def _sim_spec(kind: str, n: int | None, max_n: int | None, vectors: str | None, vocab: Vocabulary) -> SimilaritySpec:
    """The ``--sim`` flags' spec; an embed_cosine vote reads ``--vectors`` and keys it by ``vocab``'s ids."""
    if kind == "embed_cosine" and vectors is None:
        raise click.UsageError("--sim embed_cosine needs --vectors FILE")
    table = read_vector_file(vectors) if kind == "embed_cosine" else None
    return keyed_similarity(SimilaritySpec(kind=kind, n=n, max_n=max_n, vector_path=vectors), table, vocab)


def _emit(*outputs: tuple[str | None, Callable, tuple]) -> None:
    """Each ``(out, writer, args)`` as ``writer(*args, fp)``: to stdout when ``out`` is None, else to the file ``out``.

    The files are written by one :func:`save_outputs`, so none is replaced unless every write succeeded.
    """
    for out, writer, args in outputs:
        if out is None:
            buf = io.StringIO()
            writer(*args, buf)
            click.echo(buf.getvalue(), nl=False)
    save_outputs(*((out, [("", writer, args)]) for out, writer, args in outputs if out is not None))


@click.group()
@click.version_option(version=__version__, prog_name="votedecode")
def cli():
    """Pick representative sequence-model outputs by range voting."""


# --- train ------------------------------------------------------------------

@cli.command()
@click.option("--corpus", type=click.Path(), required=True, help="Training corpus, one sentence per line.")
@click.option("--out", type=click.Path(), required=True, help="Where to write the model file.")
@click.option("--order", type=int, default=ModelSpec.order, show_default=True, help="N-gram order.")
@click.option("--add-k", type=float, default=ModelSpec.add_k, show_default=True,
              help="Add-k smoothing constant (0 = MLE).")
@click.option("--max-vocab", type=int, default=None, help="Keep only the most common words.")
@click.option("--lowercase/--no-lowercase", default=False, help="Lowercase before vocabulary lookup.")
@_flag_file
def train(corpus, out, order, add_k, max_vocab, lowercase):
    """Train an add-k n-gram model and save it."""
    lines = read_corpus_lines(corpus)
    model = train_on_lines(lines, order, add_k, max_vocab, lowercase)
    _emit((out, save_model, (model,)))
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
    entry = {"name": DecodeSpec.name}
    if strategy != "beam":
        entry.update(kind="sample", strategy=strategy, count=DecodeSpec.count)
    flags = dict(beam_size=beam_size, max_len=max_len, scoring=scoring, diverse_gamma=diverse_gamma,
                 filter_copies=filter_copies, count=count, top_k=top_k, top_p=top_p)
    entry.update((key, value) for key, value in flags.items() if value is not None)
    spec = parse_decode_spec(entry, "decode")
    model = _load_cli_model(model_path, tabular_path, lowercase)
    rows = read_dataset(dataset)
    contexts = [source_context(row.source, model.vocab, lowercase) for row in rows]
    sets = decode_rows(model, spec, rows, contexts, seed, (1, 0), f"decode {spec.name!r} left no candidates")
    records = candidate_records(rows, sets, model.vocab)
    _emit((out, write_candidates, (records,)))
    click.echo(f"decoded {len(records)} inputs -> {out}")


# --- vote ---------------------------------------------------------------------

@cli.command()
@click.option("--candidates", "candidates_path", type=click.Path(), required=True,
              help="Candidates file (decode output).")
@click.option("--voters", "voters_flag", type=str, default="same", show_default=True,
              help="same | file:PATH | beam:K | sample:N. Voters inherit every search setting "
                   "they do not set: here --max-len, logprob scoring, no diversity penalty and no copy filter.")
@click.option("--sim", "sim_kind", type=click.Choice(SIMILARITY_KINDS), required=True)
@click.option("--n", type=int, default=None, help="N-gram order for prec/overl.")
@click.option("--max-n", type=int, default=None, help="Highest n-gram order for BLEU kinds.")
@click.option("--vectors", type=click.Path(), default=None, help="Token vector table for embed_cosine.")
@click.option("--out", type=click.Path(), required=True, help="Vote results file to write.")
@click.option("--contributions/--no-contributions", default=False, help="Keep the per-voter contribution matrix.")
@click.option("--model", "model_path", type=click.Path(), default=None, help="Model for beam:/sample: voters.")
@click.option("--tabular", "tabular_path", type=click.Path(), default=None)
@click.option("--max-len", type=int, default=DecodeSpec.max_len, show_default=True,
              help="Decode length for regenerated voters.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--lowercase/--no-lowercase", default=False)
@_flag_file
@click.pass_context
def vote(ctx, candidates_path, voters_flag, sim_kind, n, max_n, vectors, out, contributions,
         model_path, tabular_path, max_len, seed, lowercase):
    """Run the range-voting election over decoded candidates."""
    _refuse_unread_sim_flags(ctx, sim_kind)
    if voters_flag == "same" or voters_flag.startswith("file:"):
        _refuse_typed(ctx, {"model_path", "tabular_path", "max_len", "seed", "lowercase"},
                      f"is not read with --voters {voters_flag}")
    cand_records = read_candidates(candidates_path)
    voter_file, voter_records, voter_decode, model = [], None, None, None
    if voters_flag.startswith("file:"):
        voter_path = voters_flag[len("file:"):]
        voter_file = read_candidates(voter_path)
        voter_records = join_by_id([rec.id for rec in cand_records], [(rec.id, rec) for rec in voter_file], voter_path)
    else:
        voters = parse_voter_spec(voters_flag)  # None for same
        if voters is not None:
            voter_decode = DecodeSpec(max_len=max_len, **voters)  # no copy filter, so no source is read
            model = _load_cli_model(model_path, tabular_path, lowercase)

    if model is not None:
        vocab = model.vocab
    else:
        vocab = adhoc_vocab(tokens for rec in cand_records + voter_file for tokens, _ in rec.candidates)
    sim = _sim_spec(sim_kind, n, max_n, vectors, vocab)

    def to_set(record: CandidateRecord) -> CandidateSet:
        return CandidateSet(tuple(ScoredSequence(file_ids(tokens, vocab), lp) for tokens, lp in record.candidates))

    # Tokens and ids correspond one to one, so vote records write back the strings read.  A model's
    # vocabulary would turn an unknown token into UNK; it refuses <bos> and <eos> as unknown too.
    if model is not None:
        for rec in cand_records:
            unknown = [t for tokens, _ in rec.candidates for t in tokens if t != UNK_MARK and t not in vocab]
            if unknown:
                raise FileFormatError(f"{candidates_path}: input {rec.id!r}: unknown token {unknown[0]!r}")

    cand_sets = voter_sets = [to_set(rec) for rec in cand_records]
    if voter_records is not None:
        voter_sets = [to_set(rec) for rec in voter_records]
    elif voter_decode is not None:
        voter_sets = decode_rows(model, voter_decode, cand_records, [None] * len(cand_records), seed, (2, 0),
                                 f"--voters {voters_flag} left no voters")
    results = elect_rows(range_vote, cand_records, cand_sets, voter_sets, sim, contributions)
    _emit((out, write_votes, (results,)))
    click.echo(f"voted on {len(results)} inputs with {sim.name} -> {out}")


# --- eval ---------------------------------------------------------------------

@cli.command(name="eval")
@click.option("--hyps", "hyps_path", type=click.Path(), default=None,
              help="Candidates or votes file; the top entry per input is scored.")
@click.option("--dataset", type=click.Path(), default=None, help="References (and sources) by input id.")
@click.option("--system", type=str, default=None, help="Label for the report row (default: the --hyps file stem).")
@click.option("--metric", type=click.Choice(list(METRIC_GROUPS)), default="all", show_default=True)
@click.option("--max-n", type=int, default=ExperimentConfig.bleu_max_n, show_default=True, help="Highest BLEU order.")
@click.option("--copy-threshold", type=float, default=ExperimentConfig.copy_threshold, show_default=True)
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
        click.echo(repr(paired_bootstrap(hyp_tokens, aligned_b, aligned_refs, max_n=max_n, n_bootstrap=n_bootstrap,
                                         seed=seed)))
        return

    row = evaluate_system(system, hyp_tokens, aligned_refs, sources, max_n=max_n, copy_threshold=copy_threshold)
    columns = [col for col in report_columns(max_n) if col == "system" or METRIC_GROUPS[metric](col)]
    outputs = [(out_tsv, write_report_tsv, ([row], columns))]
    if out_json is not None:
        outputs.append((out_json, write_report_json, ([row],)))
    _emit(*outputs)


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
    _emit((out, write_enumeration, (pairs,)))
    if out is not None:
        click.echo(f"enumerated {len(pairs)} sequences (mass {dist.total_mass!r}) -> {out}")


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
@click.pass_context
def vote_winner(ctx, model_path, tabular_path, lowercase, max_len, budget, sim_kind, n, max_n, vectors):
    """Print the range-voting winner over the full enumerated support."""
    _refuse_unread_sim_flags(ctx, sim_kind)
    model = _load_cli_model(model_path, tabular_path, lowercase)
    sim = _sim_spec(sim_kind, n, max_n, vectors, model.vocab)
    result = exact_vote(model, sim, max_len, node_budget=budget)
    winner = {"sequence": detokenize(result.winner.tokens, model.vocab), "logprob": result.winner.logprob,
              "score": result.winner_score}
    click.echo(json.dumps(winner, sort_keys=True))


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
    except ValueError as exc:  # every validation error is one: ConfigError, FileFormatError, ModelFormatError
        click.echo(f"validation error: {exc}", err=True)
        return 3
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
