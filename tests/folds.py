"""Drive the folds (`FlatProfile`, `EventCounts` and the export writers)
over a list of events, as the CLI drives them over a stream."""


def fed(fold, events):
    """`fold` after each event of `events` is added to it, in list order."""
    for ev in events:
        fold.add(ev)
    return fold


def written(writer_class, events, *args) -> str:
    """The text that the writer fold `writer_class(write, *args)` writes
    for `events`."""
    blocks = []
    fed(writer_class(blocks.append, *args), events).flush()
    return "".join(blocks)
