"""Directed influence graph, raw activity counters, and the CSV dialect.

An edge ``(u, v)`` means "u can influence v" (v follows u).  Each edge may
carry two activity counters: how often v mentions u and how often v retweets
from u.  Activity observed on pairs that are not follow edges still creates
the edge, so no interaction evidence is dropped during normalization.

File formats (UTF-8 CSV, an optional leading byte-order mark, exact headers,
blank lines ignored):

* edges      -- ``src,dst``                        (src influences dst)
* mentions   -- ``mentioner,mentioned,count``      (edge: mentioned -> mentioner)
* retweets   -- ``retweeter,original_author,count``(edge: author -> retweeter)
* activity   -- ``user,tweets,followers``

This module owns the CSV dialect of all seven files evimax reads or writes:
``load_graph`` reads the four above, and ``write_csv`` writes them and the
``select``, ``evaluate`` and ``dump-edges`` outputs.  A row with a cell
holding a carriage return is written fully quoted, so every file reads back
with ``csv.reader`` as one row per record, ids intact.

A graph holds each user and each edge once: one ``str`` per user id and one
tuple per edge, shared by the edge map, the mention/retweet counters and the
activity records.  The undirected neighbour sets of the common-neighbour
indicator exist only during a ``raw_indicators`` call.

Graph construction is single-writer; after loading, instances are treated as
immutable and may be shared read-only across workers.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator


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
    """Per-user statistics feeding the seed-quality criteria."""

    user: str
    tweets: int = 0
    followers: int = 0
    mentions_received: int = 0
    retweets_received: int = 0


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
        edge = self._edges.get((src, dst))
        if edge is None:
            edge = (self._users.setdefault(src, src), self._users.setdefault(dst, dst))
            self._edges[edge] = edge
        return edge

    def add_mentions(self, src: str, dst: str, count: int) -> None:
        """Record that dst mentioned src ``count`` more times on edge (src, dst)."""
        self._add_count(self.mentions, "mention", src, dst, count)

    def add_retweets(self, src: str, dst: str, count: int) -> None:
        """Record that dst retweeted src ``count`` more times on edge (src, dst)."""
        self._add_count(self.retweets, "retweet", src, dst, count)

    def _add_count(
        self, counts: dict[tuple[str, str], int], verb: str, src: str, dst: str, count: int
    ) -> None:
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


def raw_indicators(g: SocialGraph) -> dict[tuple[str, str], tuple[float, float, float]]:
    """Raw per-edge indicator values, one triple for every edge, in edge order.

    For edge (u, v): common neighbors of u and v, mentions of u by v, and
    retweets of u's content by v.  The keys are the graph's own edge tuples,
    and edges with equal values share one triple object.  The undirected
    neighbour sets exist only during this call, and are freed before the
    result is built.
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
    vectors: dict[tuple[float, float, float], tuple[float, float, float]] = {}
    out: dict[tuple[str, str], tuple[float, float, float]] = {}
    for edge in g.edges():
        vec = (
            float(common.get(edge, 0)),
            float(mentions.get(edge, 0)),
            float(retweets.get(edge, 0)),
        )
        out[edge] = vectors.setdefault(vec, vec)
    return out


# -- CSV files -------------------------------------------------------------


def _rows(path: str | Path, header: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield (line_number, fields) for every non-blank data row."""
    # utf-8-sig drops a leading byte-order mark, which would otherwise be
    # read into the first header cell.
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise ParseError(path, 1, f"missing header, expected {','.join(header)}")
        if tuple(cell.strip() for cell in first) != header:
            raise ParseError(
                path, 1, f"bad header {first!r}, expected {','.join(header)}"
            )
        for row in reader:
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != len(header):
                raise ParseError(
                    path, reader.line_num, f"expected {len(header)} columns, got {len(cells)}"
                )
            yield reader.line_num, cells


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
    to the graph, with zero activity unless the activity file says otherwise.
    """
    g = SocialGraph()
    for line, (src, dst) in _rows(edges_path, ("src", "dst")):
        if src == dst:
            raise ParseError(edges_path, line, f"self-loop edge {src!r}")
        if not src or not dst:
            raise ParseError(edges_path, line, "empty user id")
        g.add_edge(src, dst)

    for path, header, add, verb in (
        (mentions_path, ("mentioner", "mentioned", "count"), g.add_mentions, "mention"),
        (retweets_path, ("retweeter", "original_author", "count"), g.add_retweets, "retweet"),
    ):
        if path is None:
            continue
        for line, (actor, target, text) in _rows(path, header):
            if actor == target:
                raise ParseError(path, line, f"self-{verb} by {actor!r}")
            if not actor or not target:
                raise ParseError(path, line, "empty user id")
            count = _count(path, line, text, "count")
            try:
                add(target, actor, count)
            except ValueError as exc:  # a total beyond the float range
                raise ParseError(path, line, str(exc)) from None

    activities = {user: UserActivity(user) for user in g.users}
    if activity_path is not None:
        for line, (user, tweets, followers) in _rows(
            activity_path, ("user", "tweets", "followers")
        ):
            if not user:
                raise ParseError(activity_path, line, "empty user id")
            user = g.add_user(user)
            record = activities.get(user)
            if record is None:
                record = activities[user] = UserActivity(user)
            record.tweets = _count(activity_path, line, tweets, "tweets")
            record.followers = _count(activity_path, line, followers, "followers")

    add_received_totals(g, activities)
    return g, activities


def add_received_totals(g: SocialGraph, activities: dict[str, UserActivity]) -> None:
    """Add each edge's mention and retweet counts to its source's received totals."""
    for (u, _), count in g.mentions.items():
        activities[u].mentions_received += count
    for (u, _), count in g.retweets.items():
        activities[u].retweets_received += count


def write_csv(
    path: str | Path, header: tuple[str, ...], rows: Iterable[tuple[str, ...]]
) -> None:
    """Write one CSV file of ``str`` cells in the dialect ``_rows`` reads back."""
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
    """Write a graph back to the four CSV formats accepted by load_graph."""

    def activity_rows() -> Iterator[tuple[str, str, str]]:
        idle = UserActivity("")  # the zero counts of a user with no record
        for user in g.users:
            record = activities.get(user, idle)
            yield user, str(record.tweets), str(record.followers)

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
    write_csv(activity_path, ("user", "tweets", "followers"), activity_rows())
