"""The public API: what ``convexmatch`` exports, and what it no longer does."""

import importlib

import convexmatch

# names deleted because nothing but their own tests read them
GONE = {
    "convexmatch": ("GroupPartition", "group_partition", "AntipodalProfile",
                    "antipodal_profile", "is_canonical"),
    "convexmatch.core": ("AntipodalProfile", "antipodal_profile", "IDENTITY",
                         "is_canonical"),
    "convexmatch.construct": ("GroupPartition", "group_partition",
                              "_group_partition_matching",
                              "_lemma3_candidates", "_sixblock_frame",
                              "_balanced_cut_partitions", "_cut_pair_join"),
    "convexmatch.errors": ("EmptyAntipodalCore", "NoBalancedCuts"),
}
GONE_MEMBERS = (
    ("Coloring", "color"),
    ("Coloring", "positions_of"),
    ("Symmetry", "apply_to_matching"),
    ("Symmetry", "inverse"),
    ("BlockProfile", "s"),
    ("AchievableRange", "to_set"),
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
