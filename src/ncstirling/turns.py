"""A recurrence triangle written by two processes that take turns. This process runs the
recurrence once and writes one row in every CYCLE from row 0; one forked helper writes the rows
in between, which this process ships to it. Any row renders on its own, the head with row 0 and
the tail with row n_max, so the helper is forked before anything is rendered.

Each process renders its whole next turn while the other writes, and writes it in pieces once
its turn comes; up to N = 160 a turn is under 4 MiB of text. A one-byte token on a pair of
pipes passes the turn, so the descriptor gets the bytes one process would write, in order. The
rows of the helper's turn t go to it as one marshal record in shared memory buffer t % 2, its
length on the token's pipe ahead of that turn's token. The buffer held turn t - 2, which the
helper read before it wrote that turn, and this process waits for that write before turn t - 1.

A write error in either process ends both: the helper sends its errno in place of the token and
this process raises it as its own OSError, and a helper that ends early is a ChildProcessError
here. The helper is killed and reaped whatever happens. No thread is started, so the fork is
made from a process with one thread.
"""
from __future__ import annotations

import marshal
import math
import mmap
import os
import signal
import struct
import sys
from itertools import chain, islice

from .noncentral import pieces

TURN = b"\0"  # any other byte read in its place is the errno of the helper's failed write
# This process writes rows 0, CYCLE, 2 CYCLE, ... and also runs the recurrence and ships the
# helper's rows, so the helper writes the CYCLE - 1 rows after each of them.
CYCLE = 3
_LENGTH = struct.Struct("=Q")  # of a shipped record, ahead of its turn's token


def write_in_turns(rows, row_chunks, n_max: int, stream) -> None:
    """Write rows 0..n_max of the triangle, from the iterator rows, as the renderer
    row_chunks(n, row) writes them, to the descriptor of stream, after flushing it. Raises the
    OSError of a failed write of either process."""
    fd = stream.fileno()
    stream.flush()
    sys.stderr.flush()  # so that a traceback the helper prints repeats nothing held here
    buffers = [mmap.mmap(-1, _record_bound(n_max)) for _ in range(2)]  # shared by the fork
    (from_parent, to_helper), (from_helper, to_parent) = os.pipe(), os.pipe()
    os.write(to_parent, TURN)  # this process has the first turn
    pid = os.fork()  # before anything is rendered: each process renders its own rows
    if pid == 0:
        for end in (to_helper, from_helper):  # so that an end is read as one
            os.close(end)
        _helper(row_chunks, n_max, fd, buffers, from_parent, to_parent)
    try:
        for end in (from_parent, to_parent):
            os.close(end)
        for turn, n in enumerate(range(0, n_max + 1, CYCLE)):
            chunks = row_chunks(n, next(rows))
            if shipped := tuple(islice(rows, CYCLE - 1)):  # the rows of the helper's turn
                buffer = buffers[turn % 2]
                buffer.seek(0)
                marshal.dump(shipped, buffer)  # dumps' bytes would be held through the turn
                _send(to_helper, _LENGTH.pack(buffer.tell()))
            _take_turn(fd, chunks, from_helper, to_helper)
        if n_max % CYCLE:  # the helper wrote the last row: wait for that write
            _take_turn(fd, (), from_helper, to_helper)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        for end in (to_helper, from_helper):
            os.close(end)
        for buffer in buffers:
            buffer.close()


def _record_bound(n_max: int) -> int:
    """A bound on the marshal size of the largest record, rows n_max - 1 and n_max: fewer
    than (n_max + 1) (n_max + 2) coefficients, each at most (n_max + 1)! in size (their sum in
    a row), an int of d 15-bit digits in 5 + 2 d bytes, and 2 n_max + 5 tuples of 5 bytes of
    header. Records of rows n - 1 and n took at most 69% of it for n up to 260."""
    digits = -(-math.factorial(n_max + 1).bit_length() // 15)
    return (n_max + 1) * (n_max + 2) * (5 + 2 * digits) + 5 * (2 * n_max + 5)


def _take_turn(fd: int, chunks, token_in: int, token_out: int) -> None:
    """Render the chunks, wait for the token on token_in, write them to fd in pieces, and pass
    the token on token_out."""
    held = list(chunks)
    token = os.read(token_in, 1)
    if token != TURN:
        if not token:
            raise ChildProcessError("the other writing process ended before its turn did")
        raise OSError(token[0], os.strerror(token[0]))
    for piece in pieces(held):
        view = memoryview(piece.encode())
        while view:
            view = view[os.write(fd, view):]
    _send(token_out, TURN)


def _send(pipe: int, data: bytes) -> None:
    """Write data, at most PIPE_BUF bytes, to the other process's pipe."""
    try:
        os.write(pipe, data)
    except BrokenPipeError:
        raise ChildProcessError("the other writing process ended before its turn did") from None


def _helper(row_chunks, n_max: int, fd: int, buffers, token_in: int, token_out: int) -> None:
    """The forked process: take the turns of the rows between this process's, each record's
    length read ahead of its token, then wait for the last turn and leave through os._exit,
    never into the command. A write error is sent as its errno; a defect prints its traceback."""
    status = 1
    try:
        for turn, n in enumerate(range(1, n_max + 1, CYCLE)):
            length = os.read(token_in, _LENGTH.size)
            if not length:
                raise ChildProcessError("the parent ended")
            rows = marshal.loads(buffers[turn % 2][:_LENGTH.unpack(length)[0]])
            _take_turn(fd, chain.from_iterable(map(row_chunks, range(n, n_max + 1), rows)),
                       token_in, token_out)
        if os.read(token_in, 1) == TURN:
            status = 0
    except ChildProcessError:  # the parent ended first
        pass
    except OSError as exc:
        try:
            os.write(token_out, bytes([exc.errno]))
        except OSError:  # the parent ended first
            pass
    except Exception:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(status)
