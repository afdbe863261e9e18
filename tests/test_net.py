"""Network substrate: HTTP model, TLS pinning matrix, proxy, CDN."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.net.cdn import CdnServer
from repro.net.http import HttpRequest, HttpResponse, parse_url
from repro.net.network import HttpClient, Network
from repro.net.proxy import FLOW_LOG_SIZE, InterceptingProxy
from repro.net.server import REQUEST_LOG_SIZE, VirtualServer
from repro.net.tls import (
    Certificate,
    PinSet,
    TlsError,
    TrustStore,
    issue_certificate,
)
from repro.obs.bus import ObservabilityBus


class TestHttp:
    def test_parse_url(self):
        url = parse_url("https://host.example/path/to?x=1&y=2")
        assert url.host == "host.example"
        assert url.path == "/path/to"
        assert url.query == {"x": "1", "y": "2"}

    def test_parse_url_defaults(self):
        url = parse_url("https://host.example")
        assert url.path == "/"
        assert url.query == {}

    def test_parse_url_rejects_relative(self):
        with pytest.raises(ValueError, match="no host"):
            parse_url("/just/a/path")

    def test_url_str_round_trip(self):
        url = parse_url("https://h.example/p?a=1")
        assert str(url) == "https://h.example/p?a=1"

    def test_response_helpers(self):
        assert HttpResponse(status=204).ok
        assert not HttpResponse.not_found().ok
        assert HttpResponse.forbidden().status == 403
        assert HttpResponse.bad_request().status == 400


class TestUrlCache:
    def test_repeated_parse_returns_equal_url(self):
        raw = "https://cache.example/seg/1.m4s?token=abc&x=2"
        first = parse_url(raw)
        again = parse_url(raw)
        assert again == first
        assert (again.host, again.path) == ("cache.example", "/seg/1.m4s")
        assert dict(again.query) == {"token": "abc", "x": "2"}

    def test_query_is_read_only(self):
        url = parse_url("https://cache.example/p?a=1")
        with pytest.raises(TypeError):
            url.query["a"] = "2"
        with pytest.raises(TypeError):
            url.query["b"] = "3"
        assert parse_url("https://cache.example/p?a=1").query == {"a": "1"}

    def test_url_fields_are_frozen(self):
        url = parse_url("https://cache.example/p")
        with pytest.raises(AttributeError):
            url.path = "/other"

    def test_hostless_url_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="no host"):
                parse_url("/relative/path?token=x")

    def test_distinct_urls_parse_distinctly(self):
        assert parse_url("https://a.example/x").host == "a.example"
        assert parse_url("https://b.example/x").host == "b.example"
        assert parse_url("https://a.example/x?q=1").query == {"q": "1"}


class TestTls:
    def test_issue_deterministic(self):
        a = issue_certificate("h.example", "CA", seed=b"s")
        b = issue_certificate("h.example", "CA", seed=b"s")
        assert a.spki_fingerprint() == b.spki_fingerprint()

    def test_trust_store_accepts_known_issuer(self):
        cert = issue_certificate("h.example", "GlobalRootCA", seed=b"s")
        TrustStore().verify(cert, "h.example")

    def test_trust_store_rejects_unknown_issuer(self):
        cert = issue_certificate("h.example", "EvilCA", seed=b"s")
        with pytest.raises(TlsError, match="untrusted issuer"):
            TrustStore().verify(cert, "h.example")

    def test_trust_store_rejects_hostname_mismatch(self):
        cert = issue_certificate("other.example", "GlobalRootCA", seed=b"s")
        with pytest.raises(TlsError, match="hostname"):
            TrustStore().verify(cert, "h.example")

    def test_added_issuer_trusted(self):
        store = TrustStore()
        store.add_issuer("ProxyCA")
        cert = issue_certificate("h.example", "ProxyCA", seed=b"s")
        store.verify(cert, "h.example")

    def test_pin_match(self):
        cert = issue_certificate("h.example", "CA", seed=b"s")
        pins = PinSet()
        pins.pin("h.example", cert)
        pins.verify("h.example", cert)

    def test_pin_mismatch(self):
        real = issue_certificate("h.example", "CA", seed=b"real")
        fake = issue_certificate("h.example", "CA", seed=b"fake")
        pins = PinSet()
        pins.pin("h.example", real)
        with pytest.raises(TlsError, match="pin mismatch"):
            pins.verify("h.example", fake)

    def test_unpinned_host_accepted(self):
        cert = issue_certificate("other.example", "CA", seed=b"s")
        pins = PinSet()
        pins.pin("h.example", cert)
        pins.verify("other.example", cert)

    def test_disabled_pins_accept_anything(self):
        real = issue_certificate("h.example", "CA", seed=b"real")
        fake = issue_certificate("h.example", "CA", seed=b"fake")
        pins = PinSet()
        pins.pin("h.example", real)
        pins.enabled = False
        pins.verify("h.example", fake)


class TestServerRouting:
    def test_longest_prefix_wins(self):
        server = VirtualServer("s.example")
        server.route("/a/", lambda r: HttpResponse(status=200, body=b"short"))
        server.route("/a/b/", lambda r: HttpResponse(status=200, body=b"long"))
        response = server.handle(HttpRequest("GET", "https://s.example/a/b/c"))
        assert response.body == b"long"

    def test_no_route_404(self):
        server = VirtualServer("s.example")
        assert server.handle(HttpRequest("GET", "https://s.example/x")).status == 404

    def test_route_must_be_absolute(self):
        with pytest.raises(ValueError, match="start with"):
            VirtualServer("s.example").route("relative", lambda r: None)

    def test_request_log(self):
        server = VirtualServer("s.example")
        server.handle(HttpRequest("GET", "https://s.example/x"))
        assert len(server.request_log) == 1

    def test_request_log_keeps_only_the_most_recent(self):
        server = VirtualServer("s.example")
        total = REQUEST_LOG_SIZE + 50
        for i in range(total):
            server.handle(HttpRequest("GET", f"https://s.example/r{i}"))
        assert len(server.request_log) == REQUEST_LOG_SIZE
        assert server.request_log[0].url == "https://s.example/r50"
        assert server.request_log[-1].url == f"https://s.example/r{total - 1}"


class TestNetwork:
    def test_register_and_deliver(self):
        net = Network()
        server = VirtualServer("s.example")
        server.route("/", lambda r: HttpResponse(status=200, body=b"hi"))
        net.register(server)
        response = net.deliver(HttpRequest("GET", "https://s.example/"))
        assert response.body == b"hi"

    def test_duplicate_host_rejected(self):
        net = Network()
        net.register(VirtualServer("s.example"))
        with pytest.raises(ValueError, match="already registered"):
            net.register(VirtualServer("s.example"))

    def test_unknown_host(self):
        with pytest.raises(LookupError, match="unknown host"):
            Network().deliver(HttpRequest("GET", "https://nope.example/"))

    def test_client_happy_path(self):
        net = Network()
        server = VirtualServer("s.example")
        server.route("/", lambda r: HttpResponse(status=200, body=b"ok"))
        net.register(server)
        assert HttpClient(net).get("https://s.example/").body == b"ok"

    def test_client_post(self):
        net = Network()
        server = VirtualServer("s.example")
        server.route("/", lambda r: HttpResponse(status=200, body=r.body))
        net.register(server)
        assert HttpClient(net).post("https://s.example/", b"echo").body == b"echo"


class TestProxyInterception:
    def _world(self):
        net = Network()
        server = VirtualServer("s.example")
        server.route("/", lambda r: HttpResponse(status=200, body=b"payload"))
        net.register(server)
        client = HttpClient(net)
        client.pin_set.pin("s.example", server.certificate)
        proxy = InterceptingProxy(net)
        return net, server, client, proxy

    def test_proxy_blocked_without_trusted_ca(self):
        __, __, client, proxy = self._world()
        client.set_proxy(proxy)
        with pytest.raises(TlsError, match="untrusted issuer"):
            client.get("https://s.example/")
        assert list(proxy.flows) == []

    def test_proxy_blocked_by_pinning(self):
        __, __, client, proxy = self._world()
        client.set_proxy(proxy)
        client.trust_store.add_issuer(InterceptingProxy.CA_NAME)
        with pytest.raises(TlsError, match="pin mismatch"):
            client.get("https://s.example/")

    def test_rejected_request_is_still_counted(self):
        net, server, __, proxy = self._world()
        bus = ObservabilityBus()
        client = HttpClient(net, obs=bus)
        client.pin_set.pin("s.example", server.certificate)
        client.set_proxy(proxy)
        client.trust_store.add_issuer(InterceptingProxy.CA_NAME)
        with pytest.raises(TlsError, match="pin mismatch"):
            client.post("https://s.example/", b"12345")
        client.set_proxy(None)
        client.get("https://s.example/")
        assert bus.metrics.counters() == {
            "http.bytes_in": len(b"payload"),
            "http.bytes_out": 5,
            "http.requests": 2,
            "http.status.200": 1,
        }
        assert bus.metrics.histograms()["span.http.request"].count == 2

    def test_proxy_works_after_repinning(self):
        from repro.instrumentation.hooks import disable_ssl_pinning

        __, __, client, proxy = self._world()
        client.set_proxy(proxy)
        client.trust_store.add_issuer(InterceptingProxy.CA_NAME)
        disable_ssl_pinning(client)
        response = client.get("https://s.example/")
        assert response.body == b"payload"
        assert len(proxy.flows) == 1
        assert proxy.flows[0].host == "s.example"

    def test_flows_for_filter(self):
        __, __, client, proxy = self._world()
        client.set_proxy(proxy)
        client.trust_store.add_issuer(InterceptingProxy.CA_NAME)
        client.pin_set.enabled = False
        client.get("https://s.example/")
        assert len(proxy.flows_for("s.exa")) == 1
        assert proxy.flows_for("other") == []

    def test_proxy_clear(self):
        __, __, client, proxy = self._world()
        client.set_proxy(proxy)
        client.trust_store.add_issuer(InterceptingProxy.CA_NAME)
        client.pin_set.enabled = False
        client.get("https://s.example/")
        proxy.clear()
        assert list(proxy.flows) == []

    def test_flows_keep_only_the_most_recent(self):
        net, server, client, proxy = self._world()
        server.route("/asset", lambda r: HttpResponse(status=200, body=bytes(1000)))
        client.set_proxy(proxy)
        client.trust_store.add_issuer(InterceptingProxy.CA_NAME)
        client.pin_set.enabled = False
        for i in range(3000):
            client.get(f"https://s.example/asset?i={i}")
        assert FLOW_LOG_SIZE == 1024
        assert len(proxy.flows) <= FLOW_LOG_SIZE
        first = 3000 - FLOW_LOG_SIZE
        assert proxy.flows[0].request.url == f"https://s.example/asset?i={first}"
        assert proxy.flows[-1].request.url == "https://s.example/asset?i=2999"
        assert sum(len(f.response.body) for f in proxy.flows) <= FLOW_LOG_SIZE * 1000


class TestCdn:
    def test_put_and_fetch(self):
        net = Network()
        cdn = CdnServer("cdn.example")
        net.register(cdn)
        url = cdn.put("/a/b.bin", b"blob")
        assert HttpClient(net).get(url).body == b"blob"

    def test_missing_asset_404(self):
        net = Network()
        cdn = CdnServer("cdn.example")
        net.register(cdn)
        assert HttpClient(net).get("https://cdn.example/nope").status == 404

    def test_path_must_be_absolute(self):
        with pytest.raises(ValueError, match="start with"):
            CdnServer("cdn.example").put("relative", b"x")

    def test_token_enforcement(self):
        net = Network()
        cdn = CdnServer("cdn.example", require_token=True)
        net.register(cdn)
        cdn.put("/x.bin", b"data")
        client = HttpClient(net)
        assert client.get("https://cdn.example/x.bin").status == 403
        assert client.get(cdn.url_for("/x.bin")).body == b"data"

    def test_token_gate_on_repeated_urls(self):
        # The same URL strings, requested again, hit the parse cache: the
        # gate must still judge each request by its own token.
        net = Network()
        cdn = CdnServer("cdn.example", require_token=True)
        net.register(cdn)
        cdn.put("/x.bin", b"data")
        cdn.put("/y.bin", b"other")
        client = HttpClient(net)
        good = cdn.url_for("/x.bin")
        wrong = "https://cdn.example/x.bin?token=" + cdn.token_for("/y.bin")
        for _ in range(2):
            assert client.get(good).body == b"data"
            assert client.get(wrong).status == 403
            assert client.get("https://cdn.example/x.bin?token=").status == 403
            assert client.get("https://cdn.example/x.bin").status == 403
        assert client.get(cdn.url_for("/y.bin")).body == b"other"

    def test_url_for_unknown_asset(self):
        with pytest.raises(KeyError):
            CdnServer("cdn.example").url_for("/missing")


# --- thread safety of the shared registry --------------------------------------


def test_network_concurrent_register_and_lookup():
    """Registration from many threads never corrupts the registry or
    lets a lookup observe a half-registered host."""
    network = Network()
    hosts = [f"host-{i}.example" for i in range(64)]

    def register_then_resolve(hostname: str) -> str:
        network.register(VirtualServer(hostname))
        # Resolve every host registered so far, from every thread.
        return network.server_for(hostname).hostname

    with ThreadPoolExecutor(max_workers=16) as pool:
        resolved = list(pool.map(register_then_resolve, hosts))

    assert resolved == hosts
    for hostname in hosts:
        assert network.server_for(hostname).hostname == hostname


def test_network_duplicate_registration_raced():
    """Exactly one of N racing registrations for the same host wins."""
    network = Network()
    server = VirtualServer("raced.example")

    def attempt(_: int) -> bool:
        try:
            network.register(VirtualServer("raced.example"))
            return True
        except ValueError:
            return False

    network.register(server)
    with ThreadPoolExecutor(max_workers=8) as pool:
        wins = list(pool.map(attempt, range(32)))
    assert not any(wins)
    assert network.server_for("raced.example") is server
