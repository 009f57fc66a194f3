"""The public API: what ``convexmatch`` exports, and what it no longer does."""

import importlib

import convexmatch
from convexmatch import cli, search

# names deleted, or moved to tests/oracle.py, because only tests read them
GONE = {
    "convexmatch": ("GroupPartition", "group_partition", "AntipodalProfile",
                    "antipodal_profile", "is_canonical", "AchievableRange",
                    "achievable_range"),
    "convexmatch.compose": ("AchievableRange", "achievable_range"),
    "convexmatch.core": ("AntipodalProfile", "antipodal_profile", "IDENTITY",
                         "is_canonical"),
    "convexmatch.construct": ("GroupPartition", "group_partition",
                              "_group_partition_matching",
                              "_lemma3_candidates", "_sixblock_frame",
                              "_balanced_cut_partitions", "_cut_pair_join",
                              "_half_turn", "_core_surplus", "_join",
                              "_sixblock_joins"),
    "convexmatch.search": ("DEFAULT_SWEEP_LIMIT", "_LIMITS", "_max_search",
                           "_first_hits"),
    "convexmatch.errors": ("EmptyAntipodalCore", "NoBalancedCuts"),
}
GONE_MEMBERS = (
    ("Coloring", "color"),
    ("Coloring", "positions_of"),
    ("Symmetry", "apply_to_matching"),
    ("Symmetry", "inverse"),
    ("BlockProfile", "s"),
    ("BlockProfile", "to_coloring"),
)


def test_public_api():
    names = convexmatch.__all__
    for name in names:
        getattr(convexmatch, name)
    assert len(set(names)) == len(names)
    assert names[0] == "__version__"
    assert names[1:] == sorted(names[1:])
    for module, gone in GONE.items():
        mod = importlib.import_module(module)
        for name in gone:
            assert not hasattr(mod, name), (module, name)
    for cls, member in GONE_MEMBERS:
        assert not hasattr(getattr(convexmatch, cls), member), (cls, member)


def test_cli_binds_no_private_search_name_but_the_size_gate():
    # the CLI reads the search layer through its public names; the size
    # gate is shared so that the atlas rejects an n before any file
    private = {id(obj): name for name, obj in vars(search).items()
               if name.startswith("_") and not name.startswith("__")
               and getattr(obj, "__module__", None) == search.__name__}
    bound = {private[id(obj)] for obj in vars(cli).values()
             if id(obj) in private}
    assert bound == {"_check_size"}
