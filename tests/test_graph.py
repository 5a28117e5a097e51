"""Graph construction, CSV ingestion, indicators, and the synthetic generator."""

from __future__ import annotations

import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evimax.evaluate import received_totals
from evimax.graph import (
    ParseError,
    SocialGraph,
    UnknownUserError,
    UserActivity,
    load_graph,
    raw_indicators,
    write_graph,
)
from evimax.synthetic import InvalidParametersError, generate_synthetic
from tests.helpers import synthetic_graphs
from tests.oracles import (
    common_neighbors,
    indicator_map,
    load_graph_reference,
    raw_indicators_reference,
    same_graph,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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
        assert g.num_edges() == 2
        assert g.num_users() == 3
        assert g.has_edge("a", "b") and g.has_edge("b", "c")

    def test_rejects_self_loop(self):
        g = SocialGraph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    @pytest.mark.parametrize("add, column", [("add_mentions", 1), ("add_retweets", 2)])
    def test_counts_beyond_float_range_raise(self, add, column):
        g = SocialGraph()
        with pytest.raises(ValueError, match="largest float"):
            getattr(g, add)("a", "b", 10**400)
        getattr(g, add)("a", "b", int(sys.float_info.max))
        getattr(g, add)("a", "b", 0)
        with pytest.raises(ValueError, match="largest float"):
            getattr(g, add)("a", "b", 1)
        assert indicator_map(g)[("a", "b")][column] == sys.float_info.max

    @pytest.mark.parametrize("add, column", [("add_mentions", 1), ("add_retweets", 2)])
    @pytest.mark.parametrize("count", [-3, -1, 2.0, float("nan"), True, "2", None])
    def test_counts_must_be_nonnegative_ints(self, add, column, count):
        g = SocialGraph()
        verb = add[len("add_"):-1]
        with pytest.raises(ValueError, match=f"{verb} count of 'a' by 'b' must be a nonnegative int"):
            getattr(g, add)("a", "b", count)
        # A rejected count records nothing, not even the edge.
        assert g.num_edges() == 0 and not getattr(g, add[len("add_"):])
        getattr(g, add)("a", "b", 0)
        getattr(g, add)("c", "d", 2)
        assert indicator_map(g)[("a", "b")][column] == 0.0
        assert indicator_map(g)[("c", "d")][column] == 2.0

    def test_adjacency_indexes_agree(self, dataset):
        g, _ = load_graph(*dataset)

        def adjacent(a, b):
            return g.has_edge(a, b) or g.has_edge(b, a)

        for (u, v) in g.edges():
            expected = sum(1 for w in g.users if adjacent(u, w) and adjacent(v, w))
            assert common_neighbors(g, u, v) == expected

    def test_unknown_user_raises(self, dataset):
        g, _ = load_graph(*dataset)
        u = next(iter(g.users))
        with pytest.raises(UnknownUserError):
            common_neighbors(g, "zz", u)


class TestLoadGraph:
    def test_loads_and_attaches_activity(self, dataset):
        g, activities = load_graph(*dataset)
        assert set(g.users) == {"a", "b", "c"}
        assert g.mentions[("a", "b")] == 7
        assert g.retweets[("b", "c")] == 2
        assert activities["a"].tweets == 10
        assert activities["a"].followers == 100
        assert received_totals(g) == {"a": [7, 0], "b": [0, 2]}
        # One record per activity row: c has none, and reads as zero.
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
        assert activities == {}  # no activity file, so no user has a record

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
        assert received_totals(g) == {"a": [5, 5]}
        assert activities == {}

    def test_repeated_activity_row_replaces_the_earlier(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        activity = write(tmp_path / "a.csv", "user,tweets,followers\na,5,1\na,7,9\n")
        _, activities = load_graph(edges, activity_path=activity)
        assert (activities["a"].tweets, activities["a"].followers) == (7, 9)

    def test_blank_lines_ignored(self, tmp_path):
        edges = write(tmp_path / "e.csv", "src,dst\n\na,b\n\n\nb,c\n")
        g, _ = load_graph(edges)
        assert g.num_edges() == 2

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

    # int() alone reads the first four as 1000, 12, 3 and 0.
    @pytest.mark.parametrize(
        "text", ["1_000", "\uff11\uff12", "+3", "-0", "-00", "", "1.0", "0x1", "\u00b2", "9" * 5000]
    )
    def test_count_must_be_ascii_digits(self, tmp_path, text):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        mentions = write(tmp_path / "m.csv", f"mentioner,mentioned,count\nb,a,1\nb,a,{text}\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, mentions)
        assert (err.value.path, err.value.line) == (mentions, 3)
        assert "count must be an integer" in str(err.value)

    @pytest.mark.parametrize("column", ["tweets", "followers"])
    def test_activity_count_must_be_ascii_digits(self, tmp_path, column):
        edges = write(tmp_path / "e.csv", "src,dst\na,b\n")
        row = {"tweets": "a,+3,0", "followers": "a,0,1_0"}[column]
        activity = write(tmp_path / "a.csv", f"user,tweets,followers\n{row}\n")
        with pytest.raises(ParseError) as err:
            load_graph(edges, activity_path=activity)
        assert (err.value.path, err.value.line) == (activity, 2)
        assert f"{column} must be an integer" in str(err.value)

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
        assert "largest float" in str(err.value)

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
        assert g.num_edges() == 0
        assert g.num_users() == 0
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
    """A graph and its activity records, with every user given activity."""
    users = draw(st.lists(user_ids, min_size=2, max_size=8, unique=True))
    pairs = [(u, v) for u in users for v in users if u != v]
    g = SocialGraph()
    for user in users:
        g.add_user(user)
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=12)):
        g.add_edge(u, v)
        g.add_mentions(u, v, draw(counts))
        g.add_retweets(u, v, draw(counts))
    activities = {
        user: UserActivity(user, tweets=draw(counts), followers=draw(counts))
        for user in users
    }
    return g, activities


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
    # skipped, and the others are an empty id or a self-mention by ''.
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
        for user, record in activities.items():
            assert (activities2[user].tweets, activities2[user].followers) == (
                record.tweets, record.followers
            )

    def test_padded_ids_are_stripped_and_empty_ids_rejected(self, tmp_path):
        paths = [str(tmp_path / name) for name in ("e.csv", "m.csv", "r.csv", "a.csv")]
        g = SocialGraph()
        g.add_edge(" a ", "b\t")
        g.add_mentions(" a ", "b\t", 3)
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
    for user, record in activities.items():
        assert users[user] is user
        assert record.user is user


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
        activity = write(tmp_path / "a.csv", "user,tweets,followers\n ann,1,1\n")
        g, activities = load_graph(edges, mentions, activity_path=activity)
        ann, _ = next(g.edges())
        assert g.mentions == {("ann", "bob"): 4, ("ann", "cid"): 1}
        for src, _ in g.mentions:
            assert src is ann
        assert activities["ann"].user is ann
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

    def test_unknown_user(self):
        g = SocialGraph()
        g.add_edge("a", "b")
        with pytest.raises(UnknownUserError):
            common_neighbors(g, "a", "zz")


class TestRawIndicators:
    def test_covers_every_edge_once(self, dataset):
        g, _ = load_graph(*dataset)
        vectors, column = raw_indicators(g)
        assert len(column) == g.num_edges()
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
        assert len(column) == g.num_edges()
        assert list(dict.fromkeys(column)) == list(range(len(vectors)))

    def test_one_tuple_per_distinct_vector(self):
        g, _ = generate_synthetic(seed=31, n_users=300, n_edges=600)
        vectors, column = raw_indicators(g)
        assert len(set(vectors)) == len(vectors)
        assert len(vectors) < len(column)

    def test_counts_reading_as_one_float_share_a_vector(self):
        # 2**53 and 2**53 + 1 are distinct counts but the same float.
        g = SocialGraph()
        g.add_mentions("a", "b", 2**53)
        g.add_mentions("c", "d", 2**53 + 1)
        g.add_edge("e", "f")
        assert raw_indicators(g) == ([(0.0, 2.0**53, 0.0), (0.0, 0.0, 0.0)], [0, 0, 1])

    def test_merged_counts_keep_first_edge_order(self):
        # The later of two merged count triples takes the first one's id,
        # and the ids after it close up.
        g = SocialGraph()
        g.add_retweets("a", "b", 2**53 + 1)
        g.add_edge("c", "d")
        g.add_retweets("e", "f", 2**53)
        g.add_mentions("g", "h", 3)
        assert raw_indicators(g) == raw_indicators_reference(g) == (
            [(0.0, 0.0, 2.0**53), (0.0, 0.0, 0.0), (0.0, 3.0, 0.0)], [0, 1, 0, 2]
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
        assert g.num_users() == 80
        assert g.num_edges() == 200
        assert len(activities) == 80

    def test_empty_edge_set(self):
        g, _ = generate_synthetic(seed=1, n_users=5, n_edges=0)
        assert g.num_edges() == 0

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
        for user, record in activities.items():
            assert record.followers == out_degree[user]

    def test_dense_corner_fills_exactly(self):
        g, _ = generate_synthetic(seed=2, n_users=5, n_edges=20)
        assert g.num_edges() == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_users=0, n_edges=0),
            dict(n_users=3, n_edges=-1),
            dict(n_users=3, n_edges=7),
            dict(n_users=3, n_edges=2, activity_intensity=-1.0),
            dict(n_users=3, n_edges=2, activity_intensity=float("nan")),
            dict(n_users=3, n_edges=2, activity_intensity=float("inf")),
            dict(n_users=3, n_edges=2, activity_intensity=1e308),
            dict(n_users=3, n_edges=0, activity_intensity=float("inf")),
            dict(n_users=3, n_edges=2, activity_intensity=1e8),
            dict(n_users=3, n_edges=2, activity_intensity=1e300),
            # No edges: only the mean tweet count grows with the intensity.
            dict(n_users=3, n_edges=0, activity_intensity=1e300),
            dict(n_users=50, n_edges=0, activity_intensity=1e307),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(InvalidParametersError) as err:
            generate_synthetic(seed=0, **kwargs)
        if "activity_intensity" in kwargs:
            assert "activity_intensity" in str(err.value)

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
        assert g2.num_users() == 36274
        assert g2.num_edges() >= 71027
        assert elapsed < 5.0
