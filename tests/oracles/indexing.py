"""Index oracle: the O(C²) full rebuild of the join index.

:meth:`IndexBuilder.refresh` rescores every column pair from the metadata
engine's current profiles.  On a builder that does not subscribe to
deltas it is the reference the incrementally patched index must equal:
same candidates, same graph, same join paths.
"""

from __future__ import annotations

from repro.discovery import IndexBuilder, MetadataEngine


def rebuilt_index(engine: MetadataEngine) -> IndexBuilder:
    """A non-subscribed builder freshly rebuilt from ``engine``'s current
    profiles (call again after further deltas)."""
    index = IndexBuilder(engine, subscribe=False)
    index.refresh()
    return index
