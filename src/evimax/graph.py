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

Every count, tweets and followers included, and every edge's summed mention
or retweet total is at most ``int(sys.float_info.max)`` (309 digits):
``evaluate`` prints sums of counts, and the bound keeps each far below the
4,300 digits ``str(int)`` converts.  A repeated edge row is the same edge and
keeps its first place; repeated mention or retweet rows of one pair are
summed; a repeated activity row replaces the earlier one.  ``load_graph``
reads each file in one loop over ``csv.reader``'s rows: each cell of a
row of the file's width is stripped into a local variable, the row itself
left as read, and the row is skipped if all are empty; a row of any other
width is skipped if blank and rejected otherwise.  A valid row of plain
counts calls no function written in Python: the loop interns ids and stores
edges in the graph's own dicts, and reads a count of ASCII digits shorter
than the bound with ``int`` (see ``load_graph``).  Every ``ParseError``
names the file, and the line unless the file is not UTF-8 (the text is
decoded ahead of the rows, in chunks, so the bad byte's line is not known).

This module owns the CSV dialect of all seven files evimax reads or writes:
``load_graph`` reads the four above, and ``write_csv`` writes them and the
``select``, ``evaluate`` and ``dump-edges`` outputs.  A row with a cell
holding a carriage return is written fully quoted, so every file reads back
with ``csv.reader`` as one row per record, ids intact.

A graph holds each user and each edge once: one ``str`` per user id and one
tuple per edge, shared by the edge map, the mention/retweet counters and the
activity map, which maps the graph's id of each user with an activity row
to the row's ``(tweets, followers)`` pair (a user without a row reads as
zero counts).  The common-neighbour indicator is counted from triangles
by ``raw_indicators``, which holds each undirected pair once, under its
smaller id, only during the call.  It returns the edges' indicator vectors,
the integer count triples, as a list of distinct vectors and one vector id
per edge, the column that fusion and the influence field share.

Graph construction is single-writer; after loading, instances are treated as
immutable.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator

# The largest count or summed total a graph holds (see the module docstring).
_LARGEST_COUNT = int(sys.float_info.max)
_LARGEST_DIGITS = len(str(_LARGEST_COUNT))


class ParseError(ValueError):
    """A malformed input file, reported with its file and, where known, line."""

    def __init__(self, path: str | Path, line: int | None, message: str) -> None:
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.path = str(path)
        self.line = line


class UnknownUserError(ValueError):
    """An operation referenced a user that is not in the graph."""


class SocialGraph:
    """Directed graph with per-edge mention/retweet counters.

    The graph is held once: ``_users`` maps each user id to itself and
    ``_edges`` each directed edge to itself, both in insertion order so that
    derived outputs are byte-stable across runs.  Every edge tuple is built
    from the graph's own id objects, and the ``mentions``/``retweets``
    counters are keyed by those edge tuples, so each id is one ``str`` and
    each edge one tuple however many structures refer to it.  No adjacency
    is kept; ``raw_indicators`` holds the undirected pairs for its own call.
    No self-loops, no duplicate edges.

    The counters are plain dicts from an edge to a positive int; an edge
    without activity has no entry.  ``load_graph`` checks every count it
    reads and every summed total against the bound; code that builds a
    graph itself adds counts unchecked, as
    ``g.mentions[g.add_edge(u, v)] = n``, and stores no zero.
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

    # -- queries -----------------------------------------------------------

    @property
    def users(self) -> Iterable[str]:
        return self._users.keys()

    def edges(self) -> Iterator[tuple[str, str]]:
        return iter(self._edges)

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges


INDICATOR_NAMES = ("common_neighbors", "mentions", "retweets")


def raw_indicators(
    g: SocialGraph,
) -> tuple[list[tuple[int, int, int]], list[int]]:
    """Raw indicator vectors of the edges, as distinct vectors and an id column.

    For edge (u, v) the vector is: common neighbors of u and v, mentions of u
    by v, and retweets of u's content by v.  ``vectors`` lists each distinct
    vector once, in the order of its first edge in ``g.edges()``, and
    ``column[i]`` is the index into ``vectors`` of the i-th edge's vector.

    A common neighbour of u and v closes a triangle with the pair, so the
    counts come from triangles, each found once (forward triangle listing).
    During the call each undirected pair is held once, under its smaller id:
    ``above[x]`` is the set of x's neighbours with a larger id, kept only for
    a user that has one.  Each triangle x < y < z is found as z in
    ``above[x] & above[y]`` and adds 1 to each of its three pairs, stored
    under both orientations, so a mutual pair's two edges read one count.
    """
    above: defaultdict[str, set[str]] = defaultdict(set)
    for u, v in g.edges():
        if u < v:
            above[u].add(v)
        else:
            above[v].add(u)
    common: dict[tuple[str, str], int] = {}
    shared, find = common.get, above.get
    for x, ys in above.items():
        # x is a triangle's smallest id only if it has two larger neighbours.
        if len(ys) > 1:
            for y in ys:
                zs = find(y)
                if zs is not None and not ys.isdisjoint(zs):
                    for z in ys & zs:
                        for pair in ((x, y), (x, z), (y, z)):
                            common[pair] = shared(pair, 0) + 1
    for (a, b), n in list(common.items()):
        common[b, a] = n
    mentions, retweets = g.mentions, g.retweets
    ids: dict[tuple[int, int, int], int] = {}
    column: list[int] = []
    for e in g.edges():
        column.append(
            ids.setdefault((shared(e, 0), mentions.get(e, 0), retweets.get(e, 0)), len(ids))
        )
    return list(ids), column


# -- CSV files -------------------------------------------------------------


@contextmanager
def _data_rows(path: str | Path, header: tuple[str, ...]) -> Iterator[Any]:
    """Open ``path`` and yield a ``csv.reader`` positioned after its checked header.

    A ``csv.Error`` or a decoding error, from the header or from the rows the
    ``with`` block reads, is raised as a ``ParseError``.  utf-8-sig drops a
    leading byte-order mark, which would otherwise be read into the first
    header cell.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader, None)
            if first is None:
                raise ParseError(path, 1, f"missing header, expected {','.join(header)}")
            if tuple(cell.strip() for cell in first) != header:
                raise ParseError(path, 1, f"bad header {first!r}, expected {','.join(header)}")
            yield reader
        except csv.Error as exc:
            raise ParseError(path, reader.line_num, str(exc)) from None
        except UnicodeDecodeError as exc:
            # The text layer decodes ahead of the reader in chunks, so neither
            # the reader's line nor the error's position is the bad byte's.
            raise ParseError(path, None, f"not UTF-8 text ({exc.reason})") from None


def _require_blank(path: str | Path, rows: Any, row: list[str], width: int) -> None:
    """Raise unless every cell of a row of another width than the header's is blank."""
    if any(cell.strip() for cell in row):
        raise ParseError(path, rows.line_num, f"expected {width} columns, got {len(row)}")


def _count(path: str | Path, line: int, text: str, column: str) -> int:
    """Read a count: one or more ASCII decimal digits and nothing else, at most the bound.

    ``int`` alone would also read "1_000", "+3", "-0" and non-ASCII digits
    such as fullwidth "１２".
    """
    if text.isdigit() and text.isascii():
        # Checked without its leading zeros, so int(), which refuses over
        # 4,300 digits, never sees more than the bound's.  load_graph reads a
        # count with fewer digits than the bound itself, as it is below it.
        digits = text.lstrip("0") or "0"
        if len(digits) <= _LARGEST_DIGITS and (value := int(digits)) <= _LARGEST_COUNT:
            return value
        problem = f"exceeds the largest float ({sys.float_info.max:g})"
    elif text[:1] == "-" and (rest := text[1:]).strip("0") and rest.isdigit() and rest.isascii():
        problem = "must be nonnegative"
    else:
        problem = "must be an integer"
    shown = repr(text) if len(text) <= 20 else f"{text[:20]!r}... ({len(text)} characters)"
    raise ParseError(path, line, f"{column} {problem}, got {shown}")


def load_graph(
    edges_path: str | Path,
    mentions_path: str | Path | None = None,
    retweets_path: str | Path | None = None,
    activity_path: str | Path | None = None,
) -> tuple[SocialGraph, dict[str, tuple[int, int]]]:
    """Load a graph and per-user activity from the four CSV sources.

    Only the edges file is required.  Mention/retweet rows naming pairs that
    are not follow edges create the edge; users appearing anywhere are added
    to the graph.  The activity map holds ``(tweets, followers)`` for each
    user with an activity row, in first-row order; any other user has no
    entry and reads as zero.

    One loop per file (see the module docstring) builds the graph as
    ``add_edge`` and ``add_user`` would, without calling them: each id is
    interned with ``setdefault`` on the graph's user map and each new edge
    tuple built from the interned ids.  A mention or retweet pair is first
    looked up as an edge, so a pair on a follow edge costs one lookup and
    only a new pair interns its ids, target first.  A count cell of 1 to 308
    ASCII digits, below the bound's 309, is read with ``int``; any other
    text goes through ``_count``, which alone states the count grammar and
    its error messages.
    """
    g = SocialGraph()
    intern = g._users.setdefault
    edges = g._edges
    store, find = edges.setdefault, edges.get
    largest = _LARGEST_DIGITS
    with _data_rows(edges_path, ("src", "dst")) as rows:
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
            edge = (intern(src, src), intern(dst, dst))
            store(edge, edge)

    for path, header, counts, verb in (
        (mentions_path, ("mentioner", "mentioned", "count"), g.mentions, "mention"),
        (retweets_path, ("retweeter", "original_author", "count"), g.retweets, "retweet"),
    ):
        if path is None:
            continue
        with _data_rows(path, header) as rows:
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
                    problem = f"self-{verb} by {actor!r}" if actor else "empty user id"
                    raise ParseError(path, rows.line_num, problem)
                if not actor or not target:
                    raise ParseError(path, rows.line_num, "empty user id")
                # isdigit() alone also accepts non-ASCII digits such as "²".
                if text.isdigit() and text.isascii() and len(text) < largest:
                    count = int(text)
                else:
                    count = _count(path, rows.line_num, text, "count")
                edge = find((target, actor))
                if edge is None:
                    edge = (intern(target, target), intern(actor, actor))
                    edges[edge] = edge
                if count:
                    total = counts.get(edge, 0) + count
                    if total > _LARGEST_COUNT:
                        raise ParseError(
                            path, rows.line_num,
                            f"{verb} total of {target!r} by {actor!r} exceeds the "
                            f"largest float ({sys.float_info.max:g})",
                        )
                    counts[edge] = total

    # Each activity row sets its user's pair, replacing an earlier row's.
    activities: dict[str, tuple[int, int]] = {}
    if activity_path is not None:
        with _data_rows(activity_path, ("user", "tweets", "followers")) as rows:
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
                activities[intern(user, user)] = (
                    int(tweets)
                    if tweets.isdigit() and tweets.isascii() and len(tweets) < largest
                    else _count(activity_path, rows.line_num, tweets, "tweets"),
                    int(followers)
                    if followers.isdigit() and followers.isascii() and len(followers) < largest
                    else _count(activity_path, rows.line_num, followers, "followers"),
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
    activities: dict[str, tuple[int, int]],
    edges_path: str | Path,
    mentions_path: str | Path,
    retweets_path: str | Path,
    activity_path: str | Path,
) -> None:
    """Write a graph, and one activity row per map entry, in load_graph's four formats."""
    write_csv(edges_path, ("src", "dst"), g.edges())
    write_csv(
        mentions_path,
        ("mentioner", "mentioned", "count"),
        ((v, u, str(count)) for (u, v), count in g.mentions.items()),
    )
    write_csv(
        retweets_path,
        ("retweeter", "original_author", "count"),
        ((v, u, str(count)) for (u, v), count in g.retweets.items()),
    )
    write_csv(activity_path, ("user", "tweets", "followers"),
              ((user, str(tweets), str(followers))
               for user, (tweets, followers) in activities.items()))
