"""The text of the package's CSV files, formatted in-process or by a filter.

``lines`` formats the rows of every CSV the package writes. Run as a script,
``python -I -S _csvtext.py``, this module is a filter: it reads a binary
stream of rows from stdin and writes their CSV text to stdout, so that
``simulate`` formats its rows in a second process while it steps. The stream
is ``stream_head``, then one ``RECORD`` per row followed by the row's values,
then ``END``. The module imports nothing outside the standard library, so the
filter starts without numpy or the package.
"""

import struct
import sys
from array import array

#: a row's time t and width m, followed by its m values as native float64;
#: a width of -1 ends the stream
RECORD = struct.Struct("=dq")
END = RECORD.pack(0.0, -1)
_COUNT = struct.Struct("=q")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def text_file(fd: int):
    """A text file writing to the open descriptor ``fd``, which it leaves
    open when it is closed: the one encoding and newline setting of every
    file the package writes, in this process or in the filter."""
    return open(fd, "w", encoding="utf-8", closefd=False)


def lines(header: str, rows, nodes=None):
    """The CSV text of ``header``, then one line ``t,x,value`` per row
    ``(t, values)`` and node, rows and nodes in the given order; without
    ``nodes``, one line ``t,value`` per row. A row of m < n values stands for
    the even state whose trailing n - m = floor(n/2) nodes mirror its
    leading ones, as ``operator._fold_width`` cuts it; any other row holds all
    n values. Each node is formatted once, into a ``%s`` template that the
    time joins and one ``%`` fills per row. The row's m values are formatted
    with ``%.17g``, as ``_fmt`` does, and their strings repeated for the
    mirror nodes. The rows are consumed one at a time, each yielded as one
    string, so an iterator of rows is never held whole.
    """
    cols = [""] if nodes is None else [_fmt(x) + "," for x in nodes]
    n = len(cols)
    # "t,".join(template) puts the time before every node column
    template = [""] + [c + "%s\n" for c in cols]
    leading = {m: ",".join(["%.17g"] * m) for m in ((n + 1) // 2, n)}
    yield header + "\n"
    for t, row in rows:
        m = len(row)
        s = (leading[m] % tuple(row.tolist())).split(",")
        yield (_fmt(t) + ",").join(template) % tuple(s + s[:n - m][::-1])


def stream_head(header: str, nodes) -> bytes:
    """The start of the filter's stream: the header line, then the node
    count and the nodes as native float64."""
    return header.encode() + b"\n" + _COUNT.pack(len(nodes)) + array("d", nodes).tobytes()


def _read(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise EOFError
    return data


def _values(stream, count: int) -> array:
    values = array("d")
    values.frombytes(_read(stream, count * values.itemsize))
    return values


def _rows(stream):
    """The rows of the stream up to its end marker."""
    while True:
        t, m = RECORD.unpack(_read(stream, RECORD.size))
        if m < 0:
            return
        yield t, _values(stream, m)


def main() -> int:
    """Write the CSV text of the stream on stdin to stdout. Returns 0, or 1
    if the stream ends before its end marker."""
    stream = sys.stdin.buffer
    try:
        header = stream.readline().decode().removesuffix("\n")
        nodes = _values(stream, _COUNT.unpack(_read(stream, _COUNT.size))[0])
        with text_file(sys.stdout.fileno()) as out:
            out.writelines(lines(header, _rows(stream), nodes))
    except EOFError:
        # the writer failed or was killed, and reports its own error; the
        # text written so far is its to discard
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
