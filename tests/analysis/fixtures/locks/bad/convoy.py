"""Known-bad lock fixture: blocking under a state lock + an inversion."""

import threading
import time


class ConvoyServer:
    def __init__(self):
        self._lock = threading.Lock()
        self._pool_lock = threading.Lock()

    def slow_refill(self, pool):
        with self._lock:
            pool.refill(4)  # dealer generation under the state lock

    def sleepy(self):
        with self._lock:
            time.sleep(0.1)

    def socket_wait_under_state_lock(self, sock, poller, parts):
        # A consumer reading its own socket: the wait and the scattered
        # write both park the thread while every other one queues here.
        with self._lock:
            poller.poll(1000)
            sock.sendmsg(parts)

    def forward(self):
        with self._lock:
            with self._pool_lock:
                pass

    def backward(self):
        with self._pool_lock:
            with self._lock:
                pass
