"""The bytes of the package's CSV files, formatted in-process or by a filter.

``lines`` formats the rows of every CSV the package writes, as bytes that go
to a binary file unchanged. Run as a script, ``python -I -S _csvtext.py``,
this module is a filter: it reads a binary stream of rows from stdin and
writes their CSV bytes to stdout, so that ``simulate`` formats its rows in a
second process while it steps. The stream is ``stream_head``, then one
``RECORD`` per row followed by the row's values, then ``END``. The module
imports nothing outside the standard library, so the filter starts without
numpy or the package.
"""

import struct
import sys

#: a row's time t and width m, followed by its m values as native float64;
#: a width of -1 ends the stream
RECORD = struct.Struct("=dq")
END = RECORD.pack(0.0, -1)
_COUNT = struct.Struct("=q")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def lines(header: str, rows, nodes=None):
    """The CSV bytes of ``header``, then one line ``t,x,value`` per row
    ``(t, values)`` and node, rows and nodes in the given order; without
    ``nodes``, one line ``t,value`` per row. ``values`` is a tuple of floats.
    A row of m < n values stands for the even state whose trailing n - m =
    floor(n/2) nodes mirror its leading ones, as ``operator._fold_width``
    cuts it; any other row holds all n values. Each node is formatted once,
    into a ``%s`` template that the time joins and one ``%`` fills per row.
    The row's m values are formatted with ``%.17g``, as ``_fmt`` does, and
    their strings repeated for the mirror nodes. The rows are consumed one at
    a time, each yielded as one bytes object, so an iterator of rows is never
    held whole.
    """
    cols = [b""] if nodes is None else [b"%.17g," % x for x in nodes]
    n = len(cols)
    # b"t,".join(template) puts the time before every node column
    template = [b""] + [c + b"%s\n" for c in cols]
    leading = {m: b",".join([b"%.17g"] * m) for m in ((n + 1) // 2, n)}
    yield header.encode() + b"\n"
    for t, row in rows:
        m = len(row)
        s = (leading[m] % row).split(b",")
        yield (b"%.17g," % t).join(template) % tuple(s + s[:n - m][::-1])


def stream_head(header: str, nodes) -> bytes:
    """The start of the filter's stream: the header line, then the node
    count and the nodes as native float64."""
    return (header.encode() + b"\n" + _COUNT.pack(len(nodes))
            + struct.pack(f"={len(nodes)}d", *nodes))


def _read(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise EOFError
    return data


def _rows(stream):
    """The rows of the stream up to its end marker, each row's values a
    tuple unpacked by one ``struct.Struct`` per width."""
    widths = {}
    while True:
        t, m = RECORD.unpack(_read(stream, RECORD.size))
        if m < 0:
            return
        values = widths.get(m)
        if values is None:
            values = widths[m] = struct.Struct(f"={m}d")
        yield t, values.unpack(_read(stream, values.size))


def main() -> int:
    """Write the CSV bytes of the stream on stdin to stdout. Returns 0, or 1
    if the stream ends before its end marker."""
    stream = sys.stdin.buffer
    try:
        header = stream.readline().decode().removesuffix("\n")
        count = _COUNT.unpack(_read(stream, _COUNT.size))[0]
        head = struct.Struct(f"={count}d")
        nodes = head.unpack(_read(stream, head.size))
        with open(sys.stdout.fileno(), "wb", closefd=False) as out:
            out.writelines(lines(header, _rows(stream), nodes))
    except EOFError:
        # the writer failed or was killed, and reports its own error; the
        # bytes written so far are its to discard
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
