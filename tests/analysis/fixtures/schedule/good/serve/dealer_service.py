"""Known-good dealer RPC: dual label sets, matched handshake."""

__all__ = ["GoodClient", "GoodServer"]


class GoodClient:
    def __init__(self, io):
        self.io = io

    def _connect(self):
        self.io.send_obj({}, "dealer-link")
        return self.io.recv_obj("dealer-hello")

    def fetch(self, request):
        self.io.send_obj(request, "dealer-req")
        return self.io.recv_blob("dealer-bundle")


class GoodServer:
    def __init__(self, io):
        self.io = io

    def _serve_connection(self):
        link = self.io.recv_obj("dealer-link")
        self.io.send_obj({}, "dealer-hello")
        request = self.io.recv_obj("dealer-req")
        self.io.send_blob(b"", "dealer-bundle")
        return link, request
