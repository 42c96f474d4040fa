"""Minimal path router for the service endpoints.

Routes are registered as ``(method, pattern)`` pairs where pattern
segments like ``{id}`` capture path parameters. Dispatch separates
404 (no pattern matches the path) from 405 (pattern exists, method
does not, with an ``Allow`` header) — the distinction the tests pin.
:meth:`Router.match` is the one lookup: ``dispatch`` resolves the
handler with it, and the metrics stage labels each request with the
template it returns (``unmatched`` when no pattern fits the path).
"""

from __future__ import annotations

from typing import Callable

from repro.service.middleware import Request, RequestContext, Response, json_response

__all__ = ["Router", "UNMATCHED"]

RouteHandler = Callable[[RequestContext, Request, dict], Response]

# Template of a path no registered pattern fits.
UNMATCHED = "unmatched"


class Router:
    def __init__(self) -> None:
        # (template, pattern segments, {method -> handler})
        self._routes: list[
            tuple[str, tuple[str, ...], dict[str, RouteHandler]]
        ] = []

    def add(self, method: str, pattern: str, handler: RouteHandler) -> None:
        segments = tuple(pattern.strip("/").split("/"))
        for _, existing, methods in self._routes:
            if existing == segments:
                methods[method.upper()] = handler
                return
        template = "/" + "/".join(segments)
        self._routes.append((template, segments, {method.upper(): handler}))

    @staticmethod
    def _params(segments: tuple[str, ...], parts: list[str]) -> dict | None:
        if len(parts) != len(segments):
            return None
        params: dict[str, str] = {}
        for seg, part in zip(segments, parts):
            if seg.startswith("{") and seg.endswith("}"):
                if not part:
                    return None
                params[seg[1:-1]] = part
            elif seg != part:
                return None
        return params

    def match(
        self, method: str, path: str
    ) -> tuple[str, RouteHandler | None, dict, set[str]]:
        """Resolve a request to ``(template, handler, params, allowed)``.

        The first pattern that fits ``path`` and serves ``method`` wins;
        a GET route serves HEAD too (the transport sends no body).
        Without one, ``handler`` is None, ``template`` is the first
        pattern that fits the path (or :data:`UNMATCHED`), and
        ``allowed`` holds every method the fitting patterns serve.
        """
        parts = path.strip("/").split("/")
        template = UNMATCHED
        allowed: set[str] = set()
        for candidate, segments, methods in self._routes:
            params = self._params(segments, parts)
            if params is None:
                continue
            handler = methods.get(method)
            if handler is None and method == "HEAD":
                handler = methods.get("GET")
            if handler is not None:
                return candidate, handler, params, allowed
            if not allowed:
                template = candidate
            allowed.update(methods)
        return template, None, {}, allowed

    def dispatch(self, ctx: RequestContext, request: Request) -> Response:
        _, handler, params, allowed = self.match(request.method, request.path)
        if handler is not None:
            return handler(ctx, request, params)
        if allowed:
            response = json_response(
                {"error": f"method {request.method} not allowed"}, status=405
            )
            response.headers["Allow"] = ", ".join(sorted(allowed))
            return response
        return json_response(
            {"error": f"no route for {request.path}"}, status=404
        )
