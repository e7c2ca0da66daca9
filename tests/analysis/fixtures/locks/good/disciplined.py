"""Known-good lock fixture: the sanctioned patterns."""

import threading
import time


class DisciplinedServer:
    def __init__(self):
        self._lock = threading.Lock()
        self._write_lock = threading.Lock()
        self._generation_lock = threading.Lock()
        self._drained = threading.Condition(self._lock)

    def serialized_write(self, sock, frame):
        # I/O-serialization lock: holding across the write IS the point.
        with self._write_lock:
            sock.sendall(frame)

    def serialized_scatter_write(self, sock, poller, parts):
        # The write lock again: sendmsg and the poll() that waits for
        # room in the send buffer are the serialized operation.
        with self._write_lock:
            poller.poll(1000)
            sock.sendmsg(parts)

    def socket_wait_outside(self, poller):
        with self._lock:
            timeout = 1000
        poller.poll(timeout)

    def serialized_generation(self, dealer):
        # Generation lock: serializes the rng stream by design.
        with self._generation_lock:
            dealer.generate(4)

    def wait_drained(self):
        with self._lock:
            self._drained.wait(1.0)

    def blocking_outside(self, pool):
        with self._lock:
            want = 4
        pool.refill(want)

    def consistent_nesting(self):
        with self._lock:
            with self._write_lock:
                pass

    def consistent_nesting_again(self):
        with self._lock:
            with self._write_lock:
                pass
