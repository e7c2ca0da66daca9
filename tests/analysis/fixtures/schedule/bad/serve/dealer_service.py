"""Known-bad dealer RPC: each duality rule fires exactly once."""

__all__ = ["BadClient", "BadServer"]


class BadClient:
    def __init__(self, io):
        self.io = io

    def _connect(self):
        # Opens by receiving — and so does the server: handshake deadlock.
        hello = self.io.recv_obj("dealer-hello")
        self.io.send_obj({}, "dealer-link")
        return hello

    def fetch(self, request):
        self.io.send_obj(request, "dealer-req")
        # Nobody receives this one: missing-receive.
        self.io.send_obj(request, "dealer-extra")
        # Nobody sends this one: label-mismatch.
        return self.io.recv_obj("dealer-rep")


class BadServer:
    def __init__(self, io):
        self.io = io

    def _serve_connection(self):
        link = self.io.recv_obj("dealer-link")
        self.io.send_obj({}, "dealer-hello")
        return link, self.io.recv_obj("dealer-req")
