"""tools/root_digests.py: the byte-identity check over the roots of seeded random communities."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "root_digests.py")
_SPEC = importlib.util.spec_from_file_location("root_digests", _PATH)
root_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(root_digests)


def test_two_runs_print_the_same_lines():
    # the first 8 communities (2 to 5 species, twice over) and the 21 arms-race points
    first = root_digests.digest_lines(communities=8)
    assert first == root_digests.digest_lines(communities=8)
    labels = [line.split("\t")[0] for line in first]
    assert labels[:8] == [f"community {k} ({2 + k % 4} species)" for k in range(8)]
    assert len(labels) == 8 + 21 and all(label.startswith("arms-race alpha=") for label in labels[8:])
    assert all(len(line.split("\t")[1]) == 64 for line in first)
    # different communities and dial points find different roots
    assert len({line.split("\t")[1] for line in first}) > 20


def test_communities_are_drawn_from_their_index():
    scenario, extra = root_digests.community(5)
    again, extra_again = root_digests.community(5)
    assert scenario == again and repr(extra) == repr(extra_again)
    assert len(scenario.species) == 3
    assert all(len(start) == 3 for start in extra)
