"""Command-line interface.

Subcommands:

  rank       rank sequence of a permutation (--invert for the inverse map)
  map        carry an avoider without a unique longest increasing
             subsequence to one with a unique one
  avoiders   list or count pattern-avoiding permutations of a given length
  sequences  list or count rank sequences of a given length
  census     exact per-length counts and ratios, enumerative engine or dp
             engine (a closed form over divisor sums; see ulisperm.census)
  verify     run an exhaustive verification suite
  oeis       fetch (or serve bundled) OEIS b-file data

Exit codes: 0 success / suite passed, 1 verification failure, 2 usage or
input error.  Machine-readable output goes to stdout, diagnostics to stderr;
repeated invocations produce byte-identical stdout (timing lives on stderr).
There is no randomness anywhere: every command is deterministic.

A command is run in a process of its own.  Every command runs `errors`
(which also holds the caps and names the parser shows) and `permutations`;
`import ulisperm` registers the other modules without running them, and
binding one here runs nothing either: a module runs on the first read of one
of its attributes, so each command runs only the modules it calls into.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Sequence

from . import census, oeis, ranks, ulis, verify
from .errors import (
    CACHE_ENV_VAR,
    DP_CAP,
    FIXTURE_ID,
    SEQUENCE_CAP,
    SUITE_NAMES,
    ConstructionError,
    InputError,
    _check_length,
    _int_text,
)
from .permutations import (
    AVOIDER_CAP,
    Permutation,
    catalan,
    contains_pattern,
    enumerate_avoiders,
    format_values,
    start_lengths_counts,
)

USAGE_ERROR = 2
VERIFICATION_FAILURE = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulisperm",
        description="Exact combinatorics of 132-avoiding permutations and "
                    "unique longest increasing subsequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "json", "csv"),
                     default="plain", help="output format (default plain)")

    p_rank = sub.add_parser("rank", help="rank sequence of a permutation")
    p_rank.set_defaults(run=_cmd_rank)
    p_rank.add_argument("text", help="permutation, e.g. '2 1 3' or '213'")
    p_rank.add_argument("--invert", action="store_true",
                        help="treat input as a rank sequence and print the "
                             "unique 132-avoider having it")

    p_map = sub.add_parser("map", help="inject into the unique-subsequence class")
    p_map.set_defaults(run=_cmd_map)
    p_map.add_argument("text", help="132-avoiding permutation without a "
                                    "unique longest increasing subsequence")
    p_map.add_argument("--trace", action="store_true",
                       help="print the intermediate rank sequences")

    p_avoiders = sub.add_parser("avoiders", parents=[fmt],
                                help="list or count pattern avoiders")
    p_avoiders.set_defaults(run=_cmd_avoiders)
    p_avoiders.add_argument("n", type=int)
    p_avoiders.add_argument("--pattern", default="132",
                            help="length-3 pattern to avoid (default 132)")
    p_avoiders.add_argument("--count", action="store_true",
                            help="print only the count")
    p_avoiders.add_argument("--cap", type=int, default=AVOIDER_CAP,
                            help=f"enumeration cap (default {AVOIDER_CAP})")

    p_sequences = sub.add_parser("sequences", parents=[fmt],
                                 help="list or count rank sequences")
    p_sequences.set_defaults(run=_cmd_sequences)
    p_sequences.add_argument("n", type=int)
    p_sequences.add_argument("--count", action="store_true",
                             help="print only the count")
    p_sequences.add_argument("--cap", type=int, default=SEQUENCE_CAP,
                             help=f"enumeration cap (default {SEQUENCE_CAP})")

    p_census = sub.add_parser("census", parents=[fmt],
                              help="exact counts and ratios per length")
    p_census.set_defaults(run=_cmd_census)
    p_census.add_argument("--max-n", type=int, required=True)
    p_census.add_argument("--engine", choices=("enumerative", "dp"), default="dp")
    p_census.add_argument("--cap", type=int, default=None,
                          help="engine cap override (defaults: enumerative "
                               f"{SEQUENCE_CAP}, dp {DP_CAP})")

    p_verify = sub.add_parser("verify", parents=[fmt],
                              help="run an exhaustive verification suite")
    p_verify.set_defaults(run=_cmd_verify)
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="upper bound; each suite has its own default")

    p_oeis = sub.add_parser("oeis", parents=[fmt],
                            help="fetch and print OEIS b-file entries")
    p_oeis.set_defaults(run=_cmd_oeis)
    p_oeis.add_argument("--id", default=FIXTURE_ID,
                        help=f"sequence id (default {FIXTURE_ID})")
    network = p_oeis.add_mutually_exclusive_group()
    network.add_argument("--online", action="store_true",
                         help="fetch over HTTPS (falls back to the bundled "
                              "fixture on failure)")
    network.add_argument("--offline", action="store_true",
                         help="serve the bundled fixture (default)")
    p_oeis.add_argument("--cache-dir", default=None,
                        help="on-disk cache directory (also settable via "
                             f"{CACHE_ENV_VAR})")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ConstructionError as exc:  # a construction failed its own check
        print(f"error: {exc}", file=sys.stderr)
        return VERIFICATION_FAILURE
    except BrokenPipeError:
        # the reader left early (`| head`): quiet the interpreter's last flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _emit(fmt: str, header: Sequence[str], rows: Iterable[Sequence],
          json_value: object = None, plain_lines: Iterable[str] | None = None, *,
          json_line: str | None = None, csv_end: str = "\r\n",
          csv_note: str | None = None) -> None:
    """Write one command's output; the only place where formats differ.

    csv: `header`, then `rows`, streamed; `csv_note` goes to stderr.  json:
    `json_line` if given (json.dumps writes ints under the digit limit), else
    one sorted-key line of `json_value`, by default the bare values of
    one-column rows as a list.  plain: `plain_lines`, by default each row
    space-joined, streamed."""
    if fmt == "json":
        if json_line is None:
            import json

            if json_value is None:
                json_value = [row[0] for row in rows]
            json_line = json.dumps(json_value, sort_keys=True)
        print(json_line)
    elif fmt == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator=csv_end)
        writer.writerow(header)
        writer.writerows(rows)
        if csv_note is not None:
            print(csv_note, file=sys.stderr)
    else:
        if plain_lines is None:
            plain_lines = (" ".join(map(str, row)) for row in rows)
        for line in plain_lines:
            print(line)


def _cmd_rank(args: argparse.Namespace) -> int:
    if args.invert:
        print(ranks.invert(ranks.RankSequence.from_text(args.text)))
        return 0
    p = Permutation.from_text(args.text)
    verdict = contains_pattern(p)  # one sweep: a 132 or an avoider's ranks
    values = verdict.ranks
    if verdict.contains:
        print(f"warning: input contains 132 at positions {verdict.witness}; "
              "ranks are still well-defined", file=sys.stderr)
        values, _ = start_lengths_counts(p)  # `start_ranks` without its sweep
    print(format_values(values))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    sequence, lifted, image = ulis.uniquify_stages(Permutation.from_text(args.text))
    if args.trace:
        print(f"ranks:  {sequence}\nlifted: {lifted}")
    print(image)
    return 0


def _list_or_count(args: argparse.Namespace, stream: Iterable, column: str) -> int:
    """List `stream` or print its length.  The enumerator call that made
    `stream` has already checked the arguments, and the length is catalan(n)
    for rank sequences and for the avoiders of every length-3 pattern, so a
    count walks nothing.  Both walks certify that length, so a listing
    writes at most catalan(n) items or ends in ConstructionError."""
    if args.count:
        count = _int_text(catalan(args.n))
        # unlike a table, a count's csv ends its lines in LF: fixed output bytes
        _emit(args.format, ["count"], [[count]], json_line=f'{{"count": {count}}}',
              csv_end="\n")
    else:
        _emit(args.format, [column], ([str(item)] for item in stream))
    return 0


def _cmd_avoiders(args: argparse.Namespace) -> int:
    pattern = Permutation.from_text(args.pattern)
    return _list_or_count(args, enumerate_avoiders(args.n, pattern, cap=args.cap),
                          "permutation")


def _cmd_sequences(args: argparse.Namespace) -> int:
    return _list_or_count(args, ranks.enumerate_rank_sequences(args.n, cap=args.cap),
                          "sequence")


def _census_rows(args: argparse.Namespace) -> list[census.CensusRow]:
    cap = args.cap
    if cap is None:
        cap = SEQUENCE_CAP if args.engine == "enumerative" else DP_CAP
    # checked before either engine runs: the enumerative one walks every n < max_n first
    _check_length(f"{args.engine} census", args.max_n, 1, cap)
    if args.engine == "enumerative":
        return [census.census_enumerative(n, cap=cap) for n in range(1, args.max_n + 1)]
    return list(census.census_rows_dp(args.max_n, cap=cap))


def _census_summary(rows: list[census.CensusRow]) -> dict:
    # every total is positive, so ratios compare as u * total' against u' * total
    min_row = rows[0]
    for row in rows:
        if row.u * min_row.total < min_row.u * row.total:
            min_row = row  # strictly smaller: the first minimal row wins
    start = len(rows) - 1  # of the longest non-increasing tail
    while start and (rows[start - 1].u * rows[start].total
                     >= rows[start].u * rows[start - 1].total):
        start -= 1
    return {
        "max_n": rows[-1].n,
        "min_ratio_num": _int_text(min_row.ratio.numerator),
        "min_ratio_den": _int_text(min_row.ratio.denominator),
        "min_ratio_at": min_row.n,
        "all_at_least_half": all(2 * row.u >= row.total for row in rows),
        "equality_at": [row.n for row in rows if 2 * row.u == row.total],
        "nonincreasing_from": rows[start].n,
    }


def _cmd_census(args: argparse.Namespace) -> int:
    import json

    rows = _census_rows(args)
    summary = _census_summary(rows)
    records = [row.to_json_dict() for row in rows]
    floor = ("every ratio >= 1/2" if summary["all_at_least_half"]
             else "RATIO BELOW 1/2 FOUND")
    plain = [
        "n catalan u v ratio approx(display-only)",
        *(f"{r['n']} {r['catalan']} {r['u']} {r['v']} "
          f"{r['ratio_num']}/{r['ratio_den']} {float(row.ratio):.12g}"
          for row, r in zip(rows, records)),
        f"min ratio {summary['min_ratio_num']}/{summary['min_ratio_den']} "
        f"at n={summary['min_ratio_at']}; {floor}; "
        f"equality at n={summary['equality_at']}; "
        f"non-increasing from n={summary['nonincreasing_from']}",
    ]
    _emit(args.format, list(records[0]), [list(record.values()) for record in records],
          {"rows": records, "summary": summary}, plain,
          csv_note=f"summary: {json.dumps(summary, sort_keys=True)}")
    return 0 if summary["all_at_least_half"] else VERIFICATION_FAILURE


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    report = verify.run_suite(args.suite, args.max_n)
    max_n = report.parameters["max_n"]
    stats = {k: v for k, v in report.outcome.items() if k != "status"}
    _emit(args.format, ["suite", "max_n", "status", "outcome"],
          [[args.suite, max_n, report.outcome["status"],
            json.dumps(report.outcome, sort_keys=True)]], report.to_payload(),
          [f"{'PASS' if report.passed else 'FAIL'} {args.suite} max_n={max_n} "
           f"{json.dumps(stats, sort_keys=True)}"])
    print(f"duration_ms={report.duration_ms:.1f}", file=sys.stderr)
    return 0 if report.passed else VERIFICATION_FAILURE


def _cmd_oeis(args: argparse.Namespace) -> int:
    text = oeis.fetch_bfile(args.id, online=args.online, cache_dir=args.cache_dir)
    rows = [(_int_text(e.index), _int_text(e.value)) for e in oeis.parse_bfile(text)]
    # values as json strings keep big integers exact as decimal text; indices
    # stay json numbers, placed by hand since json.dumps is under the digit limit
    objects = ", ".join(f'{{"index": {index}, "value": "{value}"}}' for index, value in rows)
    _emit(args.format, ["index", "value"], rows, json_line=f"[{objects}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
