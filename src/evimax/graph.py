"""Directed influence graph, raw activity counters, and the CSV dialect.

An edge ``(u, v)`` means "u can influence v" (v follows u).  Each edge may
carry two activity counters: how often v mentions u and how often v retweets
from u.  Activity observed on pairs that are not follow edges still creates
the edge, so no interaction evidence is dropped during normalization.

File formats (UTF-8 CSV, an optional leading byte-order mark, exact headers,
blank lines ignored, cells stripped of surrounding whitespace):

* edges      -- ``src,dst``                        (src influences dst)
* mentions   -- ``mentioner,mentioned,count``      (edge: mentioned -> mentioner)
* retweets   -- ``retweeter,original_author,count``(edge: author -> retweeter)
* activity   -- ``user,tweets,followers``

A repeated edge row is the same edge and keeps its first place; repeated
mention or retweet rows of one pair are summed; a repeated activity row
replaces the earlier one.  ``load_graph`` reads each file in one loop over
``csv.reader``'s rows: a row of the file's width has its cells stripped in
place and is skipped if all are empty, and a row of any other width is
skipped if blank and rejected otherwise.  Every ``ParseError`` names the
file and line.

This module owns the CSV dialect of all seven files evimax reads or writes:
``load_graph`` reads the four above, and ``write_csv`` writes them and the
``select``, ``evaluate`` and ``dump-edges`` outputs.  A row with a cell
holding a carriage return is written fully quoted, so every file reads back
with ``csv.reader`` as one row per record, ids intact.

A graph holds each user and each edge once: one ``str`` per user id and one
tuple per edge, shared by the edge map, the mention/retweet counters and the
activity records, one per activity row (a user without a row reads as zero
counts).  The undirected neighbour sets of the common-neighbour
indicator exist only during a ``raw_indicators`` call, which returns the
edges' indicator vectors as a list of distinct vectors and one vector id
per edge, the column that fusion and the influence field share.

Graph construction is single-writer; after loading, instances are treated as
immutable.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, TextIO


class ParseError(ValueError):
    """A malformed input row, reported with its file and line number."""

    def __init__(self, path: str | Path, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line


class UnknownUserError(ValueError):
    """An operation referenced a user that is not in the graph."""


@dataclass(slots=True)
class UserActivity:
    """One activity row: a user's tweets authored and followers."""

    user: str
    tweets: int = 0
    followers: int = 0


class SocialGraph:
    """Directed graph with per-edge mention/retweet counters.

    The graph is held once: ``_users`` maps each user id to itself and
    ``_edges`` each directed edge to itself, both in insertion order so that
    derived outputs are byte-stable across runs.  Every edge tuple is built
    from the graph's own id objects, and the ``mentions``/``retweets``
    counters are keyed by those edge tuples, so each id is one ``str`` and
    each edge one tuple however many structures refer to it.  No neighbour
    sets are kept; ``raw_indicators`` builds them for its own call.  No
    self-loops, no duplicate edges.
    """

    def __init__(self) -> None:
        self._users: dict[str, str] = {}
        self._edges: dict[tuple[str, str], tuple[str, str]] = {}
        self.mentions: dict[tuple[str, str], int] = {}
        self.retweets: dict[tuple[str, str], int] = {}

    # -- construction ------------------------------------------------------

    def add_user(self, user: str) -> str:
        """Insert ``user`` if new; return the graph's object for that id."""
        return self._users.setdefault(user, user)

    def add_edge(self, src: str, dst: str) -> tuple[str, str]:
        """Insert the edge src -> dst, creating endpoints; return the graph's tuple.

        A duplicate is a no-op that returns the tuple of the first insertion.
        """
        if src == dst:
            raise ValueError(f"self-loop rejected: {src!r}")
        users = self._users
        edge = (users.setdefault(src, src), users.setdefault(dst, dst))
        return self._edges.setdefault(edge, edge)

    def add_mentions(self, src: str, dst: str, count: int) -> None:
        """Record that dst mentioned src ``count`` more times on edge (src, dst)."""
        self._add_count(self.mentions, "mention", src, dst, count)

    def add_retweets(self, src: str, dst: str, count: int) -> None:
        """Record that dst retweeted src ``count`` more times on edge (src, dst)."""
        self._add_count(self.retweets, "retweet", src, dst, count)

    def _add_count(
        self, counts: dict[tuple[str, str], int], verb: str, src: str, dst: str, count: int
    ) -> None:
        # A count is a nonnegative int, as the loader reads it: a negative
        # one would lower the normalization minimum, and a float (NaN
        # included) or a bool would be summed into the total as it is.
        if type(count) is not int or count < 0:
            raise ValueError(
                f"{verb} count of {src!r} by {dst!r} must be a nonnegative int, got {count!r}"
            )
        edge = self.add_edge(src, dst)
        if count:
            total = counts.get(edge, 0) + count
            # raw_indicators reads a count as a float, so an edge's total
            # must stay within the float range.
            if total > sys.float_info.max:
                raise ValueError(
                    f"{verb} total of {src!r} by {dst!r} exceeds the "
                    f"largest float ({sys.float_info.max:g})"
                )
            counts[edge] = total

    # -- queries -----------------------------------------------------------

    @property
    def users(self) -> Iterable[str]:
        return self._users.keys()

    def edges(self) -> Iterator[tuple[str, str]]:
        return iter(self._edges)

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    def num_users(self) -> int:
        return len(self._users)

    def num_edges(self) -> int:
        return len(self._edges)


INDICATOR_NAMES = ("common_neighbors", "mentions", "retweets")


def raw_indicators(
    g: SocialGraph,
) -> tuple[list[tuple[float, float, float]], list[int]]:
    """Raw indicator vectors of the edges, as distinct vectors and an id column.

    For edge (u, v) the vector is: common neighbors of u and v, mentions of u
    by v, and retweets of u's content by v.  ``vectors`` lists each distinct
    vector once, in the order of its first edge in ``g.edges()``, and
    ``column[i]`` is the index into ``vectors`` of the i-th edge's vector.
    The undirected neighbour sets exist only during this call, and are freed
    before the column is built.
    """
    neighbors: dict[str, set[str]] = {user: set() for user in g.users}
    for u, v in g.edges():
        neighbors[u].add(v)
        neighbors[v].add(u)
    # Most endpoints share no neighbour, so only the nonzero counts are kept.
    common: dict[tuple[str, str], int] = {}
    for edge in g.edges():
        nu, nv = neighbors[edge[0]], neighbors[edge[1]]
        if not nu.isdisjoint(nv):
            common[edge] = len(nu & nv)
    del neighbors
    mentions, retweets = g.mentions, g.retweets
    ids: dict[tuple[int, int, int], int] = {}
    column = [
        ids.setdefault((common.get(e, 0), mentions.get(e, 0), retweets.get(e, 0)), len(ids))
        for e in g.edges()
    ]
    # Each distinct count triple is converted once.  Counts above 2**53 can
    # round to one float triple; those ids are merged onto the first one.
    vectors: dict[tuple[float, float, float], int] = {}
    merged = [vectors.setdefault((float(c), float(m), float(r)), len(vectors))
              for c, m, r in ids]
    if len(vectors) < len(merged):
        column = [merged[i] for i in column]
    return list(vectors), column


# -- CSV files -------------------------------------------------------------


def _data_rows(handle: TextIO, path: str | Path, header: tuple[str, ...]) -> Any:
    """A ``csv.reader`` over ``handle`` positioned after its checked header."""
    reader = csv.reader(handle)
    first = next(reader, None)
    if first is None:
        raise ParseError(path, 1, f"missing header, expected {','.join(header)}")
    if tuple(cell.strip() for cell in first) != header:
        raise ParseError(path, 1, f"bad header {first!r}, expected {','.join(header)}")
    return reader


def _require_blank(path: str | Path, rows: Any, row: list[str], width: int) -> None:
    """Raise unless every cell of a row of another width than the header's is blank."""
    if any(cell.strip() for cell in row):
        raise ParseError(path, rows.line_num, f"expected {width} columns, got {len(row)}")


_DIGITS = "0123456789"


def _count(path: str | Path, line: int, text: str, column: str) -> int:
    """Read a count: one or more ASCII decimal digits and nothing else.

    ``int`` alone would also read "1_000", "+3", "-0" and non-ASCII digits
    such as fullwidth "１２".
    """
    if text and not text.lstrip(_DIGITS):
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    elif text[:1] == "-" and text[1:].strip("0") and not text[1:].lstrip(_DIGITS):
        raise ParseError(path, line, f"{column} must be nonnegative, got {text}")
    raise ParseError(path, line, f"{column} must be an integer, got {text!r}")


def load_graph(
    edges_path: str | Path,
    mentions_path: str | Path | None = None,
    retweets_path: str | Path | None = None,
    activity_path: str | Path | None = None,
) -> tuple[SocialGraph, dict[str, UserActivity]]:
    """Load a graph and per-user activity from the four CSV sources.

    Only the edges file is required.  Mention/retweet rows naming pairs that
    are not follow edges create the edge; users appearing anywhere are added
    to the graph.  The activity map holds a record per user with an activity
    row, in first-row order; any other user has none and reads as zero.
    """
    # One loop per file (see the module docstring).  utf-8-sig drops a
    # leading byte-order mark, which would otherwise be read into the first
    # header cell.
    g = SocialGraph()
    add_edge = g.add_edge
    with open(edges_path, newline="", encoding="utf-8-sig") as handle:
        rows = _data_rows(handle, edges_path, ("src", "dst"))
        for row in rows:
            if len(row) != 2:
                _require_blank(edges_path, rows, row, 2)
                continue
            src = row[0].strip()
            dst = row[1].strip()
            if src == dst:
                if not src:
                    continue
                raise ParseError(edges_path, rows.line_num, f"self-loop edge {src!r}")
            if not src or not dst:
                raise ParseError(edges_path, rows.line_num, "empty user id")
            add_edge(src, dst)

    for path, header, add, verb in (
        (mentions_path, ("mentioner", "mentioned", "count"), g.add_mentions, "mention"),
        (retweets_path, ("retweeter", "original_author", "count"), g.add_retweets, "retweet"),
    ):
        if path is None:
            continue
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows = _data_rows(handle, path, header)
            for row in rows:
                if len(row) != 3:
                    _require_blank(path, rows, row, 3)
                    continue
                actor = row[0].strip()
                target = row[1].strip()
                text = row[2].strip()
                if actor == target:
                    if not (actor or text):
                        continue
                    raise ParseError(path, rows.line_num, f"self-{verb} by {actor!r}")
                if not actor or not target:
                    raise ParseError(path, rows.line_num, "empty user id")
                count = _count(path, rows.line_num, text, "count")
                try:
                    add(target, actor, count)
                except ValueError as exc:  # a total beyond the float range
                    raise ParseError(path, rows.line_num, str(exc)) from None

    # Each activity row makes its user's record, replacing an earlier row's.
    activities: dict[str, UserActivity] = {}
    if activity_path is not None:
        with open(activity_path, newline="", encoding="utf-8-sig") as handle:
            rows = _data_rows(handle, activity_path, ("user", "tweets", "followers"))
            for row in rows:
                if len(row) != 3:
                    _require_blank(activity_path, rows, row, 3)
                    continue
                user = row[0].strip()
                tweets = row[1].strip()
                followers = row[2].strip()
                if not user:
                    if not (tweets or followers):
                        continue
                    raise ParseError(activity_path, rows.line_num, "empty user id")
                user = g.add_user(user)
                activities[user] = UserActivity(
                    user,
                    _count(activity_path, rows.line_num, tweets, "tweets"),
                    _count(activity_path, rows.line_num, followers, "followers"),
                )
    return g, activities


def write_csv(
    path: str | Path, header: tuple[str, ...], rows: Iterable[tuple[str, ...]]
) -> None:
    """Write one CSV file of ``str`` cells in the dialect ``load_graph`` reads back."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        # csv quotes a line break only when it is a character of the line
        # terminator, so a cell holding a bare "\r" would be written unquoted
        # and end its row on reading.  A row holding a "\r" is quoted in full;
        # its cells are all strings, so one join finds it.
        quote_all = csv.writer(handle, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        for row in rows:
            if "\r" in "".join(row):
                quote_all.writerow(row)
            else:
                writer.writerow(row)


def write_graph(
    g: SocialGraph,
    activities: dict[str, UserActivity],
    edges_path: str | Path,
    mentions_path: str | Path,
    retweets_path: str | Path,
    activity_path: str | Path,
) -> None:
    """Write a graph, and one activity row per record, in load_graph's four formats."""
    write_csv(edges_path, ("src", "dst"), g.edges())
    write_csv(
        mentions_path,
        ("mentioner", "mentioned", "count"),
        ((v, u, str(count)) for (u, v), count in g.mentions.items() if count > 0),
    )
    write_csv(
        retweets_path,
        ("retweeter", "original_author", "count"),
        ((v, u, str(count)) for (u, v), count in g.retweets.items() if count > 0),
    )
    write_csv(activity_path, ("user", "tweets", "followers"),
              ((r.user, str(r.tweets), str(r.followers)) for r in activities.values()))
