"""Graph construction, CSV ingestion, indicators, and the synthetic generator."""

from __future__ import annotations

import csv
import random
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evimax.evaluate import received_totals
from evimax.graph import (
    ParseError,
    SocialGraph,
    load_graph,
    raw_indicators,
    write_graph,
)
from evimax.synthetic import MAX_EDGES, MAX_USERS, generate_synthetic
from tests.helpers import synthetic_graphs
from tests.oracles import (
    add_count,
    common_neighbors,
    indicator_map,
    load_graph_reference,
    num_edges,
    raw_indicators_reference,
    same_graph,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


# Texts that are no count, though int() reads the first four as 1000, 12, 3
# and 0 and the last as 3, and isdigit() accepts the last two.
NOT_COUNTS = [
    "1_000", "\uff11\uff12", "+3", "-0", "-00", "", "1.0", "0x1", "\u00b2", "\u0663",
]


# Ids whose string order differs from any order they are drawn in often:
# "10" < "9", "B" < "a", and "u10" < "u9" < "ü".
CLIQUE_IDS = ("b", "a", "10", "9", "1", "B", "aa", "u9", "u10", "ü")


@st.composite
def clique_graphs(draw):
    """Graphs of planted K4 and K5 cliques, plus random edges and counts.

    Users are inserted in a drawn order, and each clique pair is an edge one
    way, the other way, or both (mutual).
    """
    ids = draw(st.permutations(CLIQUE_IDS))[: draw(st.integers(5, len(CLIQUE_IDS)))]
    g = SocialGraph()
    for user in ids:
        g.add_user(user)
    cliques = draw(st.lists(st.lists(st.sampled_from(ids), min_size=4, max_size=5, unique=True),
                            max_size=3))
    for members in cliques:
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                way = draw(st.sampled_from(("forward", "back", "mutual")))
                if way != "back":
                    g.add_edge(u, v)
                if way != "forward":
                    g.add_edge(v, u)
    for u, v in draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                              max_size=20)):
        if u != v:
            g.add_edge(u, v)
    edges = list(g.edges())
    if edges:
        for counts in (g.mentions, g.retweets):
            for edge in draw(st.lists(st.sampled_from(edges), max_size=4)):
                counts[edge] = counts.get(edge, 0) + 1
    return g


@pytest.fixture
def dataset(tmp_path):
    """A small four-file dataset: a->b->c triangle-ish with activity."""
    edges = write(tmp_path / "edges.csv", "src,dst\na,b\nb,c\na,c\n")
    mentions = write(tmp_path / "mentions.csv", "mentioner,mentioned,count\nb,a,7\n")
    retweets = write(tmp_path / "retweets.csv", "retweeter,original_author,count\nc,b,2\n")
    activity = write(tmp_path / "activity.csv", "user,tweets,followers\na,10,100\nb,5,20\n")
    return edges, mentions, retweets, activity


class TestSocialGraph:
    def test_dedup_and_counts(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\na,b\nb,c\n")
        g, _ = load_graph(edges)
        assert num_edges(g) == 2
        assert len(g.users) == 3
        assert g.has_edge("a", "b") and g.has_edge("b", "c")

    def test_rejects_self_loop(self):
        g = SocialGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_common_neighbors_oracle_matches_a_brute_force_count(self, dataset):
        g, _ = load_graph(*dataset)

        def adjacent(a, b):
            return g.has_edge(a, b) or g.has_edge(b, a)

        for (u, v) in g.edges():
            expected = sum(1 for w in g.users if adjacent(u, w) and adjacent(v, w))
            assert common_neighbors(g, u, v) == expected


class TestLoadGraph:
    def test_loads_and_attaches_activity(self, dataset):
        g, activities = load_graph(*dataset)
        assert set(g.users) == {"a", "b", "c"}
        assert g.mentions[("a", "b")] == 7
        assert g.retweets[("b", "c")] == 2
        assert activities["a"] == (10, 100)
        assert received_totals(g, g.users) == {"a": [7, 0], "b": [0, 2]}
        # One entry per activity row: c has none, and reads as zero.
        assert list(activities) == ["a", "b"]

    def test_users_in_first_appearance_order(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\nb,a\nc,a\na,b\nd,c\n")
        mentions = write(tmp_path / "m.csv", "mentioner,mentioned,count\nf,e,1\n")
        activity = write(tmp_path / "a.csv", "user,tweets,followers\nz,1,0\nc,2,0\ny,3,0\n")
        g, _ = load_graph(edges, mentions, activity_path=activity)
        # Edge endpoints (source first) in edge order, the mention's edge
        # e -> f, then users found only in the activity file.
        assert list(g.users) == ["b", "a", "c", "d", "e", "f", "z", "y"]

    def test_activity_on_non_follow_pair_creates_edge(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(tmp_path / "m.csv", "mentioner,mentioned,count\nz,q,3\n")
        g, activities = load_graph(edges, mentions)
        assert g.has_edge("q", "z")
        assert g.mentions[("q", "z")] == 3
        assert activities == {}  # no activity file, so no user has an entry

    @pytest.mark.parametrize("kind, header", [
        ("mentions", "mentioner,mentioned,count"),
        ("retweets", "retweeter,original_author,count"),
    ])
    def test_zero_count_on_non_follow_pair_creates_the_edge_only(self, tmp_path, kind, header):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        counts = write(tmp_path / "c.csv", f"{header}\nz,q,0\n")
        g, _ = load_graph(edges, **{f"{kind}_path": counts})
        assert list(g.edges()) == [("a", "b"), ("q", "z")]
        assert g.mentions == {} and g.retweets == {}

    def test_repeated_edge_row_keeps_the_first(self, tmp_path):
        # A repeated edge row, padded or not, is the same edge: it keeps the
        # place and the tuple of its first row.
        edges = write(tmp_path / "e.csv", "src,dst\nann,bob\ncid,dan\n ann , bob\n")
        g, _ = load_graph(edges)
        assert list(g.edges()) == [("ann", "bob"), ("cid", "dan")]
        assert list(g.users) == ["ann", "bob", "cid", "dan"]

    def test_repeated_mention_and_retweet_rows_are_summed(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(tmp_path / "m.csv", "mentioner,mentioned,count\nb,a,2\nb,a,3\n")
        retweets = write(
            tmp_path / "r.csv", "retweeter,original_author,count\nb,a,4\nb,a,0\nb,a,1\n"
        )
        g, activities = load_graph(edges, mentions, retweets)
        assert g.mentions == {("a", "b"): 5}
        assert g.retweets == {("a", "b"): 5}
        assert received_totals(g, g.users) == {"a": [5, 5]}
        assert activities == {}

    def test_repeated_activity_row_replaces_the_earlier(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        activity = write(tmp_path / "a.csv", "user,tweets,followers\na,5,1\na,7,9\n")
        _, activities = load_graph(edges, activity_path=activity)
        assert activities == {"a": (7, 9)}

    @pytest.mark.parametrize("row,width", [("b,2", 2), ("b,2,3,", 4)])
    def test_activity_row_of_another_width_must_be_blank(self, tmp_path, row, width):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        activity = write(tmp_path / "a.csv", "user,tweets,followers\n , \nb,2,3\n")
        _, activities = load_graph(edges, activity_path=activity)
        assert list(activities) == ["b"]
        activity = write(tmp_path / "a.csv", f"user,tweets,followers\n , \n{row}\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, activity_path=activity)
        assert str(err.value) == f"{activity}:3: expected 3 columns, got {width}"

    def test_blank_lines_ignored(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\n\na,b\n\n\nb,c\n")
        g, _ = load_graph(edges)
        assert num_edges(g) == 2

    @pytest.mark.parametrize(
        "content,fragment",
        [
            ("source,dst\na,b\n", "header"),
            ("src,dst\na,b,c\n", "columns"),
            ("src,dst\na,a\n", "self-loop"),
            ("src,dst\na,\n", "empty user"),
        ],
    )
    def test_bad_edge_rows(self, tmp_path, content, fragment):
        edges = write(tmp_path / "e.csv", content)
        with pytest.raises(ParseError) as err:
            load_graph(edges)
        assert fragment in str(err.value)

    @pytest.mark.parametrize("kind", ["mentions", "retweets"])
    def test_count_row_with_both_ids_empty_is_an_empty_id(self, tmp_path, kind):
        # Both ids are equal, but the row is no self-mention or self-retweet.
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        header = {"mentions": "mentioner,mentioned", "retweets": "retweeter,original_author"}
        counts = write(tmp_path / "c.csv", f"{header[kind]},count\n ,,5\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, **{f"{kind}_path": counts})
        assert str(err.value) == f"{counts}:2: empty user id"

    def test_bad_count_reports_line(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(tmp_path / "m.csv", "mentioner,mentioned,count\nb,a,-2\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, mentions)
        assert err.value.line == 2
        assert "nonneg" in str(err.value)

    def test_non_integer_count(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        retweets = write(tmp_path / "r.csv", "retweeter,original_author,count\nb,a,lots\n")
        with pytest.raises(ParseError):
            load_graph(edges, retweets_path=retweets)

    @pytest.mark.parametrize("text", NOT_COUNTS)
    def test_count_must_be_ascii_digits(self, tmp_path, text):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(tmp_path / "m.csv", f"mentioner,mentioned,count\nb,a,1\nb,a,{text}\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, mentions)
        assert (err.value.path, err.value.line) == (mentions, 3)
        assert "count must be an integer" in str(err.value)

    @pytest.mark.parametrize("text", NOT_COUNTS)
    @pytest.mark.parametrize("column", ["tweets", "followers"])
    def test_activity_count_must_be_ascii_digits(self, tmp_path, column, text):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        row = {"tweets": f"a,{text},0", "followers": f"a,0,{text}"}[column]
        activity = write(tmp_path / "a.csv", f"user,tweets,followers\n{row}\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, activity_path=activity)
        assert (err.value.path, err.value.line) == (activity, 2)
        assert f"{column} must be an integer" in str(err.value)

    # int() refuses a text of over 4,300 digits; these exceed the bound.
    @pytest.mark.parametrize(
        "text", ["9" * 5000, "1" + "0" * 4300, "9" * 310, str(int(sys.float_info.max) + 1)],
        ids=["5000-nines", "10**4300", "310-nines", "bound+1"],
    )
    def test_count_beyond_the_bound_is_shown_short(self, tmp_path, text):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(tmp_path / "m.csv", f"mentioner,mentioned,count\nb,a,1\nb,a,{text}\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, mentions)
        assert (err.value.path, err.value.line) == (mentions, 3)
        assert str(err.value) == (
            f"{mentions}:3: count exceeds the largest float (1.79769e+308), "
            f"got {text[:20]!r}... ({len(text)} characters)"
        )

    @pytest.mark.parametrize("column", ["tweets", "followers"])
    def test_activity_count_beyond_the_bound_reports_line(self, tmp_path, column):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        # The second has the bound's 309 digits, so only the comparison rejects it.
        for huge in ("9" * 4300, str(int(sys.float_info.max) + 1)):
            row = {"tweets": f"a,{huge},0", "followers": f"a,0,{huge}"}[column]
            activity = write(tmp_path / "a.csv", f"user,tweets,followers\n{row}\n")
            with pytest.raises(ParseError) as err:
                load_graph(edges, activity_path=activity)
            assert (err.value.path, err.value.line) == (activity, 2)
            assert f"{column} exceeds the largest float" in str(err.value)

    def test_counts_up_to_the_bound_accepted(self, tmp_path):
        # Leading zeros do not count towards the bound, however many.
        largest = int(sys.float_info.max)
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        activity = write(
            tmp_path / "a.csv", f"user,tweets,followers\na,{'0' * 5000}7,{'0' * 9}{largest}\n"
        )
        _, activities = load_graph(edges, activity_path=activity)
        assert activities["a"] == (7, largest)

    def test_padded_and_zero_led_counts_accepted(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(tmp_path / "m.csv", "mentioner,mentioned,count\nb,a, 007 \nb,a,0\n")
        g, _ = load_graph(edges, mentions)
        assert g.mentions == {("a", "b"): 7}

    def test_count_beyond_float_range_reports_line(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(
            tmp_path / "m.csv", "mentioner,mentioned,count\nb,a,1\nb,a," + "9" * 401 + "\n"
        )
        with pytest.raises(ParseError) as err:
            load_graph(edges, mentions)
        assert (err.value.path, err.value.line) == (mentions, 3)
        assert "largest float" in str(err.value)

    def test_counts_summing_beyond_float_range_report_second_row(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        largest = int(sys.float_info.max)
        text = f"retweeter,original_author,count\nb,a,{largest}\nb,a,0\n"
        g, _ = load_graph(edges, retweets_path=write(tmp_path / "r.csv", text))
        assert indicator_map(g)[("a", "b")][2] == sys.float_info.max
        retweets = write(tmp_path / "r.csv", text + "b,a,1\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, retweets_path=retweets)
        assert (err.value.path, err.value.line) == (retweets, 4)
        assert str(err.value).endswith(
            "retweet total of 'a' by 'b' exceeds the largest float (1.79769e+308)"
        )

    # The reader's field limit raises csv.Error, reported like a bad row.
    @pytest.mark.parametrize(
        "kind, template, line",
        [
            ("edges", "src,{long}\na,b\n", 1),
            ("edges", "src,dst\na,b\n{long},b\n", 3),
            ("mentions", "mentioner,mentioned,count\nb,a,1\nb,{long},2\n", 3),
        ],
        ids=["edges-header", "edges-row", "mentions-row"],
    )
    def test_field_beyond_the_csv_limit_reports_file_and_line(
        self, tmp_path, kind, template, line
    ):
        limit = csv.field_size_limit()
        paths = {"edges": write(tmp_path / "e.csv", "src,dst\na,b\n")}
        paths[kind] = write(tmp_path / f"{kind}.csv", template.format(long="x" * (limit + 1)))
        with pytest.raises(ParseError) as err:
            load_graph(paths["edges"], paths.get("mentions"))
        assert (err.value.path, err.value.line) == (paths[kind], line)
        assert str(err.value) == f"{paths[kind]}:{line}: field larger than field limit ({limit})"

    # The bad byte is in the header, in the first 8 KiB, or beyond them.
    @pytest.mark.parametrize("rows_before", [None, 0, 2000])
    def test_non_utf8_file_is_named_without_a_line(self, tmp_path, rows_before):
        if rows_before is None:
            text = b"src,d\xffst\na,b\n"
        else:
            text = b"src,dst\n" + b"a,b\n" * rows_before + b"c\xff,d\n"
        edges = tmp_path / "e.csv"
        edges.write_bytes(text)
        with pytest.raises(ParseError) as err:
            load_graph(edges)
        assert err.value.line is None
        assert str(err.value) == f"{edges}: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("kind", range(4), ids=("edges", "mentions", "retweets", "activity"))
    def test_utf8_bom_accepted(self, dataset, tmp_path, kind):
        paths = list(dataset)
        with open(paths[kind], encoding="utf-8") as handle:
            text = handle.read()
        paths[kind] = write(tmp_path / "bom.csv", "\ufeff" + text)
        g, activities = load_graph(*paths)
        expected_g, expected_activities = load_graph(*dataset)
        assert same_graph(g, expected_g)
        assert activities == expected_activities

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "nope.csv")

    def test_empty_edge_file(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\n")
        g, activities = load_graph(edges)
        assert num_edges(g) == 0
        assert len(g.users) == 0
        assert activities == {}

    def test_round_trip(self, dataset, tmp_path):
        g, activities = load_graph(*dataset)
        paths = [str(tmp_path / name) for name in ("e2.csv", "m2.csv", "r2.csv", "a2.csv")]
        write_graph(g, activities, *paths)
        g2, activities2 = load_graph(*paths)
        assert same_graph(g2, g)
        assert activities2 == activities


# Ids mixing CSV specials (quotes, commas, line breaks) with any text UTF-8
# can encode (the files are UTF-8, so lone surrogates cannot occur).  The
# loader strips each cell and rejects empty ids by contract, so ids with
# surrounding whitespace or none at all are left to a pinned test.
user_ids = (
    st.lists(st.sampled_from(['"', ",", "\r\n", "\n", "\r", "'"])
             | st.characters(codec="utf-8"),
             min_size=1, max_size=6)
    .map("".join)
    .filter(lambda s: s and s == s.strip())
)
counts = st.sampled_from([0, 1, 2**63]) | st.integers(0, 10**30)


@st.composite
def written_graphs(draw):
    """A graph and its activity map, with every user given activity."""
    users = draw(st.lists(user_ids, min_size=2, max_size=8, unique=True))
    pairs = [(u, v) for u in users for v in users if u != v]
    g = SocialGraph()
    for user in users:
        g.add_user(user)
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=12)):
        g.add_edge(u, v)
        add_count(g.mentions, g, u, v, draw(counts))
        add_count(g.retweets, g, u, v, draw(counts))
    return g, {user: (draw(counts), draw(counts)) for user in users}


# Cells of the hostile files the loader must read exactly as its row-by-row
# reference does: padded, quoted (holding a comma, a CR or a CRLF), empty
# and all-whitespace ids, and counts int() alone would misread.  Valid cells
# are listed several times, so that most files load and the rows after a
# bad one are reached too.
HOSTILE_IDS = (
    ["a", "b", "c", "d", "e", "f", "g", " a ", "b\t", '"a,b"', '"a\rb"', '"c\r\nd"'] * 6
    + ["", "  "]
)
HOSTILE_COUNTS = ["1", "5", "007", " 3 ", "\t12", "0"] * 12 + [
    "+3", "-1", "-0", "１２", "1_000", "9" * 5000, "", "x",
    # Either side of the loader's int() fast path: the longest count it
    # reads, the bound (309 digits) and one above it, a valid count too long
    # for int(), and digits that isdigit() accepts but a count may not hold.
    "9" * 308, str(int(sys.float_info.max)), str(int(sys.float_info.max) + 1),
    "0" * 5000 + "7", "\u00b2", "\u0663",
]
HEADERS = {
    "edges": "src,dst",
    "mentions": "mentioner,mentioned,count",
    "retweets": "retweeter,original_author,count",
    "activity": "user,tweets,followers",
}


@st.composite
def hostile_csvs(draw, kind):
    """The text of one input file with hostile rows, widths and line endings."""
    width = len(HEADERS[kind].split(","))
    header = draw(st.sampled_from(
        [HEADERS[kind]] * 20 + [" " + HEADERS[kind].replace(",", " , "), "src", ""]
    ))
    n_ids = 1 if kind == "activity" else 2
    # Two ids of a row differ after stripping unless the row is a self-loop.
    ids = st.lists(st.sampled_from(HOSTILE_IDS), min_size=n_ids, max_size=n_ids,
                   unique_by=lambda cell: cell.strip(' "\t'))
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        row = draw(ids) + [draw(st.sampled_from(HOSTILE_COUNTS)) for _ in range(width - n_ids)]
        shape = draw(st.sampled_from(
            ["row"] * 30 + ["self", "holes", "holes", "blank", "spaces", "short", "long"]
        ))
        if shape == "self" and n_ids == 2:
            row[1] = row[0]
        elif shape == "holes":  # some cells empty or whitespace
            row = [draw(st.sampled_from(["", " ", cell])) for cell in row]
        elif shape == "blank":
            row = []
        elif shape == "spaces":
            row = [" "] * draw(st.integers(1, width + 1))
        elif shape == "short":
            row = row[:-1]
        elif shape == "long":
            row.append(draw(st.sampled_from(["", " ", "x"])))
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    return draw(st.sampled_from(["", "\ufeff"])) + text if text else text


def load_outcome(load, paths):
    """What a loader makes of the files: its graph and activity, or its error."""
    try:
        g, activities = load(*paths)
    except Exception as exc:  # ParseError, or csv.Error from the reader
        return type(exc), str(exc)
    return (
        list(g.users), list(g.edges()), list(g.mentions.items()),
        list(g.retweets.items()), list(activities.items()),
    )


class TestLoaderMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        texts=st.tuples(*(hostile_csvs(kind) for kind in HEADERS)),
        given_files=st.lists(st.sampled_from([True, True, False]), min_size=3, max_size=3),
    )
    # Rows of the expected width whose id cells are empty: blank rows are
    # skipped, and the others are an empty user id.
    @example(
        texts=(
            "src,dst\r\n , \r\na,b\r\n",
            "mentioner,mentioned,count\n , ,\nb, a ,2\n , ,5\n",
            "retweeter,original_author,count\n",
            "user,tweets,followers\n , , \n",
        ),
        given_files=[True, True, True],
    )
    @example(
        texts=(
            "src,dst\na,b\n",
            "mentioner,mentioned,count\n",
            "retweeter,original_author,count\n",
            "user,tweets,followers\n,,\n , ,7\n",
        ),
        given_files=[True, True, True],
    )
    # A blank activity row of another width is skipped; a filled one is not.
    @example(
        texts=(
            "src,dst\na,b\n",
            "mentioner,mentioned,count\nb,a,2\n",
            "retweeter,original_author,count\nb,a,1\n",
            "user,tweets,followers\n , \nb,2,3\na,1\n",
        ),
        given_files=[True, True, True],
    )
    @example(
        texts=("src,dst\na,b\n ,b\n", "", "", ""),
        given_files=[False, False, False],
    )
    def test_same_graph_or_same_error(self, tmp_path_factory, texts, given_files):
        directory = tmp_path_factory.mktemp("hostile")
        paths = []
        for (kind, text), given_file in zip(zip(HEADERS, texts), [True, *given_files]):
            path = directory / f"{kind}.csv"
            path.write_bytes(text.encode("utf-8"))
            paths.append(str(path) if given_file else None)
        expected = load_outcome(load_graph_reference, paths)
        assert load_outcome(load_graph, paths) == expected


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(data=written_graphs())
    def test_write_then_load_is_identity(self, tmp_path_factory, data):
        g, activities = data
        directory = tmp_path_factory.mktemp("round_trip")
        paths = [str(directory / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
        write_graph(g, activities, *paths)
        g2, activities2 = load_graph(*paths)
        assert same_graph(g2, g)
        assert list(g2.edges()) == list(g.edges())
        assert activities2 == activities

    def test_padded_ids_are_stripped_and_empty_ids_rejected(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
        g = SocialGraph()
        g.add_edge(" a ", "b\t")
        add_count(g.mentions, g, " a ", "b\t", 3)
        write_graph(g, {}, *paths)
        g2, _ = load_graph(*paths)
        assert list(g2.edges()) == [("a", "b")]
        assert g2.mentions == {("a", "b"): 3}

        g = SocialGraph()
        g.add_edge("", "b")
        write_graph(g, {}, *paths)
        with pytest.raises(ParseError) as err:
            load_graph(*paths)
        assert "empty user id" in str(err.value)


def as_keys(mapping):
    """Each key of ``mapping`` mapped to itself, whatever the stored values."""
    return {key: key for key in mapping}


def assert_one_object_per_id_and_edge(g, activities):
    """Every structure of ``g`` and ``activities`` refers to the graph's own objects."""
    users, edges = as_keys(g._users), as_keys(g._edges)
    for edge in g.edges():
        assert all(users[end] is end for end in edge)
    for counts in (g.mentions, g.retweets):
        assert all(edges[key] is key for key in counts)
    assert all(users[user] is user for user in activities)


class TestSharedObjects:
    def test_synthetic_graph(self):
        g, activities = generate_synthetic(seed=3, n_users=200, n_edges=500)
        assert g.mentions and g.retweets
        assert_one_object_per_id_and_edge(g, activities)

    def test_loaded_graph(self, tmp_path):
        g, activities = generate_synthetic(seed=3, n_users=200, n_edges=500)
        paths = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
        write_graph(g, activities, *paths)
        with open(paths[3], "a", encoding="utf-8") as handle:
            handle.write("only-active,1,2\n")
        g, activities = load_graph(*paths)
        assert "only-active" in activities
        assert_one_object_per_id_and_edge(g, activities)

    # Ids are built at run time and longer than one character: CPython
    # caches one-character strings, so "a" is always the same object.
    def test_duplicate_edge_returns_first_tuple(self):
        g = SocialGraph()
        first = g.add_edge("ann", "bob")
        assert first == ("ann", "bob")
        again = g.add_edge("".join(["an", "n"]), "".join(["bo", "b"]))
        assert again is first
        assert next(g.edges()) is first

    def test_add_user_returns_the_graph_id(self):
        g = SocialGraph()
        ann = g.add_user("ann")
        assert g.add_user("".join(["an", "n"])) is ann
        src, _ = g.add_edge("".join(["an", "n"]), "bob")
        assert src is ann

    def test_padded_id_in_mentions_is_the_edge_file_id(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\nann,bob\n")
        mentions = write(
            tmp_path / "m.csv", "mentioner,mentioned,count\nbob, ann,4\ncid, ann,1\n"
        )
        # One retweet on the pair a mention row made an edge, one on the follow edge.
        retweets = write(
            tmp_path / "r.csv", "retweeter,original_author,count\ncid,ann ,2\n bob,ann,3\n"
        )
        activity = write(tmp_path / "a.csv", "user,tweets,followers\n ann,1,1\n")
        g, activities = load_graph(edges, mentions, retweets, activity)
        ann, _ = next(g.edges())
        assert g.mentions == {("ann", "bob"): 4, ("ann", "cid"): 1}
        for src, _ in g.mentions:
            assert src is ann
        assert list(g.retweets.items()) == [(("ann", "cid"), 2), (("ann", "bob"), 3)]
        (active,) = activities
        assert active is ann
        assert_one_object_per_id_and_edge(g, activities)


class TestCommonNeighbors:
    def test_no_shared_neighbors(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\nc,d\n")
        g, _ = load_graph(edges)
        assert common_neighbors(g, "a", "d") == 0

    def test_star_leaves_share_center(self):
        g = SocialGraph()
        g.add_edge("c", "l1")
        g.add_edge("c", "l2")
        assert common_neighbors(g, "l1", "l2") == 1

    def test_triangle_plus_shared_sink(self):
        # Triangle a,b,c plus a->d and b->d: a and b share c and d.
        g = SocialGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("c", "a")
        g.add_edge("a", "d")
        g.add_edge("b", "d")
        assert common_neighbors(g, "a", "b") == 2

    def test_symmetric(self):
        rng = random.Random(11)
        g = SocialGraph()
        users = [f"u{i}" for i in range(12)]
        for u in users:
            g.add_user(u)
        for u in users:
            for v in users:
                if u != v and rng.random() < 0.25:
                    g.add_edge(u, v)
        for u in users:
            for v in users:
                if u != v:
                    assert common_neighbors(g, u, v) == common_neighbors(g, v, u)


class TestRawIndicators:
    def test_covers_every_edge_once(self, dataset):
        g, _ = load_graph(*dataset)
        vectors, column = raw_indicators(g)
        assert len(column) == num_edges(g)
        assert set(column) == set(range(len(vectors)))

    def test_values(self, dataset):
        g, _ = load_graph(*dataset)
        indicators = indicator_map(g)
        # Edge (a, b): shared neighbor c, 7 mentions, no retweets.
        assert indicators[("a", "b")] == (1.0, 7.0, 0.0)
        # Edge (b, c): shared neighbor a, retweeted twice.
        assert indicators[("b", "c")] == (1.0, 0.0, 2.0)

    def test_quiet_edge_is_structural_only(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        g, _ = load_graph(edges)
        assert raw_indicators(g) == ([(0.0, 0.0, 0.0)], [0])

    def test_keys_are_the_graph_edges_in_order(self):
        # The column follows g.edges(), and vector ids are numbered in the
        # order of their first edges.
        g, _ = generate_synthetic(seed=12, n_users=80, n_edges=400)
        vectors, column = raw_indicators(g)
        assert len(column) == num_edges(g)
        assert list(dict.fromkeys(column)) == list(range(len(vectors)))

    def test_one_tuple_per_distinct_vector(self):
        g, _ = generate_synthetic(seed=31, n_users=300, n_edges=600)
        vectors, column = raw_indicators(g)
        assert len(set(vectors)) == len(vectors)
        assert len(vectors) < len(column)

    def test_counts_above_2_53_are_distinct_vectors(self):
        # 2**53 and 2**53 + 1 are distinct counts, though the same float.
        g = SocialGraph()
        add_count(g.mentions, g, "a", "b", 2**53)
        add_count(g.mentions, g, "c", "d", 2**53 + 1)
        g.add_edge("e", "f")
        vectors, column = raw_indicators(g)
        assert (vectors, column) == ([(0, 2**53, 0), (0, 2**53 + 1, 0), (0, 0, 0)], [0, 1, 2])
        assert all(type(x) is int for vec in vectors for x in vec)

    def test_large_counts_keep_first_edge_order(self):
        g = SocialGraph()
        add_count(g.retweets, g, "a", "b", 2**53 + 1)
        g.add_edge("c", "d")
        add_count(g.retweets, g, "e", "f", 2**53)
        add_count(g.mentions, g, "g", "h", 3)
        add_count(g.retweets, g, "i", "j", 2**53 + 1)
        assert raw_indicators(g) == raw_indicators_reference(g) == (
            [(0, 0, 2**53 + 1), (0, 0, 0), (0, 0, 2**53), (0, 3, 0)], [0, 1, 2, 3, 0]
        )

    @settings(max_examples=100, deadline=None)
    @given(graph=synthetic_graphs())
    def test_equals_the_per_edge_float_reference(self, graph):
        g, _ = graph
        assert raw_indicators(g) == raw_indicators_reference(g)

    def test_first_column_is_common_neighbors(self):
        g, _ = generate_synthetic(seed=12, n_users=80, n_edges=400)
        indicators = indicator_map(g)
        assert any(vec[0] for vec in indicators.values())
        for (u, v), vec in indicators.items():
            assert vec[0] == common_neighbors(g, u, v)

    def test_mutual_k5_counts_three_per_edge(self):
        # Inserted out of string order: "b" before "a", "10" before "9".
        g = SocialGraph()
        users = ["b", "a", "10", "9", "c"]
        for u in users:
            for v in users:
                if u != v:
                    g.add_edge(u, v)
        assert raw_indicators(g) == raw_indicators_reference(g) == ([(3, 0, 0)], [0] * 20)

    def test_directed_cycles_and_a_planted_k4(self):
        # Two directed 3-cycles through the mutual pair b <-> a, a K4 on
        # 10, 9, b, a with mixed directions, and a pendant edge.
        g = SocialGraph()
        for edge in [("b", "a"), ("a", "10"), ("10", "b"), ("a", "b"), ("b", "9"),
                     ("9", "a"), ("10", "9"), ("x", "10")]:
            g.add_edge(*edge)
        add_count(g.mentions, g, "a", "b", 4)
        indicators = indicator_map(g)
        assert indicators[("b", "a")] == (2, 0, 0)
        assert indicators[("a", "b")] == (2, 4, 0)
        assert indicators[("10", "9")] == (2, 0, 0)
        assert indicators[("x", "10")] == (0, 0, 0)
        assert raw_indicators(g) == raw_indicators_reference(g)

    @settings(max_examples=150, deadline=None)
    @given(graph=clique_graphs())
    def test_equals_the_reference_on_planted_cliques(self, graph):
        assert raw_indicators(graph) == raw_indicators_reference(graph)


class TestGenerateSynthetic:
    def test_deterministic(self):
        g1, a1 = generate_synthetic(seed=5, n_users=60, n_edges=150)
        g2, a2 = generate_synthetic(seed=5, n_users=60, n_edges=150)
        assert same_graph(g1, g2)
        assert a1 == a2

    def test_different_seeds_differ(self):
        g1, _ = generate_synthetic(seed=5, n_users=60, n_edges=150)
        g2, _ = generate_synthetic(seed=6, n_users=60, n_edges=150)
        assert not same_graph(g1, g2)

    def test_requested_shape(self):
        g, activities = generate_synthetic(seed=1, n_users=80, n_edges=200)
        assert len(g.users) == 80
        assert num_edges(g) == 200
        assert len(activities) == 80

    def test_empty_edge_set(self):
        g, _ = generate_synthetic(seed=1, n_users=5, n_edges=0)
        assert num_edges(g) == 0

    def test_activity_ratios_track_targets(self):
        g, _ = generate_synthetic(seed=3, n_users=2000, n_edges=4000)
        mention_total = sum(g.mentions.values())
        retweet_total = sum(g.retweets.values())
        expected_mentions = 4000 * 20300 / 71027
        expected_retweets = 4000 * 9789 / 71027
        assert abs(mention_total - expected_mentions) <= 0.2 * expected_mentions
        assert abs(retweet_total - expected_retweets) <= 0.2 * expected_retweets

    def test_followers_equal_out_degree(self):
        g, activities = generate_synthetic(seed=9, n_users=50, n_edges=120)
        out_degree = Counter(u for u, _ in g.edges())
        for user, (_, followers) in activities.items():
            assert followers == out_degree[user]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_users", [2, 3, 5, 12])
    def test_complete_digraph_has_every_pair(self, seed, n_users):
        g, _ = generate_synthetic(seed=seed, n_users=n_users, n_edges=n_users * (n_users - 1))
        pairs = {(src, dst) for src in g.users for dst in g.users if src != dst}
        assert set(g.edges()) == pairs

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_makes_exactly_the_requested_distinct_edges(self, seed, data):
        n_users = data.draw(st.integers(1, 12))
        n_edges = data.draw(st.integers(0, n_users * (n_users - 1)))
        g, activities = generate_synthetic(seed=seed, n_users=n_users, n_edges=n_edges)
        edges = list(g.edges())
        assert len(set(edges)) == len(edges) == n_edges
        assert all(src != dst for src, dst in edges)
        assert len(g.users) == len(activities) == n_users

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_users=0, n_edges=0), f"n_users must lie in [1, {MAX_USERS}], got 0"),
            (dict(n_users=3, n_edges=-1), f"n_edges must lie in [0, {MAX_EDGES}], got -1"),
            (dict(n_users=3, n_edges=7), "7 edges do not fit in a simple digraph on 3 users"),
            # Each size bound alone, and the one-user graph that fits no edge.
            (dict(n_users=-1, n_edges=0), f"n_users must lie in [1, {MAX_USERS}], got -1"),
            (dict(n_users=MAX_USERS + 1, n_edges=0),
             f"n_users must lie in [1, {MAX_USERS}], got {MAX_USERS + 1}"),
            (dict(n_users=MAX_USERS, n_edges=MAX_EDGES + 1),
             f"n_edges must lie in [0, {MAX_EDGES}], got {MAX_EDGES + 1}"),
            (dict(n_users=1, n_edges=1), "1 edges do not fit in a simple digraph on 1 users"),
        ],
        # Positional ids, so a message does not become part of the test's name.
        ids=[f"kwargs{i}" for i in range(7)],
    )
    def test_invalid_parameters(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            generate_synthetic(seed=0, **kwargs)

    def test_round_trip_through_files(self, tmp_path):
        g, activities = generate_synthetic(seed=4, n_users=40, n_edges=90)
        paths = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
        write_graph(g, activities, *paths)
        g2, activities2 = load_graph(*paths)
        assert same_graph(g2, g)
        assert activities2 == activities

    def test_crawl_scale_dataset_loads_quickly(self, tmp_path):
        """A 36k-user / 71k-edge dataset ingests in well under 5 seconds."""
        import time

        g, activities = generate_synthetic(seed=30, n_users=36274, n_edges=71027)
        # At reference scale the activity totals should track the target
        # follows : mentions : retweets proportions within 20%.
        assert abs(sum(g.mentions.values()) - 20300) <= 0.2 * 20300
        assert abs(sum(g.retweets.values()) - 9789) <= 0.2 * 9789
        paths = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
        write_graph(g, activities, *paths)
        started = time.perf_counter()
        g2, _ = load_graph(*paths)
        elapsed = time.perf_counter() - started
        assert len(g2.users) == 36274
        assert num_edges(g2) >= 71027
        assert elapsed < 5.0
