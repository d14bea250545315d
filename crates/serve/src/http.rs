//! A minimal HTTP/1.1 layer on blocking I/O — exactly the subset the
//! sweep service needs, hand-rolled because the dependency policy keeps
//! the tree to the sanctioned vendored crates (no tokio, no hyper).
//!
//! Supported: request-line + header parsing, `Content-Length` bodies,
//! fixed-length responses with `Connection: close`, and chunked
//! transfer encoding for the streaming journal feed. Deliberately not
//! supported: keep-alive, pipelining, `Transfer-Encoding` on requests,
//! and anything multipart — clients here are `curl` and CI scripts.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on a request body (a `SweepSpec` is a few KiB; this is
/// generous) — anything larger is rejected before it is read.
pub const MAX_BODY: usize = 8 * 1024 * 1024;

/// Upper bound on a single request or header line.
const MAX_LINE: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, …).
    pub method: String,
    /// Request path with the query string stripped.
    pub path: String,
    /// Raw query string (empty when absent).
    pub query: String,
    /// Request body (empty without `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// Whether the query string carries `key` as a bare flag or with a
    /// truthy value (`?follow`, `?follow=1`, `?follow=true`).
    #[must_use]
    pub fn flag(&self, key: &str) -> bool {
        self.query.split('&').any(|kv| {
            kv == key
                || kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')) == Some("1")
                || kv.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')) == Some("true")
        })
    }
}

fn read_line<R: BufRead>(reader: &mut R) -> Result<String, String> {
    let mut buf = Vec::new();
    let mut take = reader.take(MAX_LINE as u64 + 1);
    take.read_until(b'\n', &mut buf)
        .map_err(|e| format!("read error: {e}"))?;
    if buf.len() > MAX_LINE {
        return Err("header line too long".to_string());
    }
    while buf.last() == Some(&b'\n') || buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| "header line is not UTF-8".to_string())
}

/// Reads and parses one request from `reader`.
///
/// # Errors
/// A human-readable message for malformed or oversized requests; the
/// caller answers with `400` and closes the connection.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Request, String> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let target = parts.next().ok_or("request line lacks a path")?;
    let version = parts.next().ok_or("request line lacks a version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol version {version}"));
    }
    let mut content_length = 0usize;
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length `{}`", value.trim()))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// A fixed-length response ready to be written.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
        }
    }

    /// An error response: `{"error": <message>}` with proper escaping.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        let body = format!(
            "{{\"error\":{}}}",
            serde_json::to_string(message).unwrap_or_else(|_| "\"error\"".to_string())
        );
        Response::json(status, body)
    }
}

/// The reason phrase for the status codes this service emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response.
///
/// Head and body go out in one `write_all`: on an unbuffered socket,
/// `write!` issues a syscall (and a TCP segment) per formatted piece.
///
/// # Errors
/// Propagates I/O errors from the underlying stream.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    )
    .into_bytes();
    out.extend_from_slice(&resp.body);
    w.write_all(&out)?;
    w.flush()
}

/// Starts a `200` chunked-transfer response (the streaming journal
/// feed); follow with [`write_chunk`] and terminate with
/// [`finish_chunked`].
///
/// # Errors
/// Propagates I/O errors from the underlying stream.
pub fn write_chunked_head<W: Write>(w: &mut W, content_type: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    );
    w.write_all(head.as_bytes())?;
    w.flush()
}

/// Writes one chunk in one `write_all`; empty data is skipped (an empty
/// chunk would terminate the stream).
///
/// # Errors
/// Propagates I/O errors from the underlying stream.
pub fn write_chunk<W: Write>(w: &mut W, data: &[u8]) -> io::Result<()> {
    if data.is_empty() {
        return Ok(());
    }
    let mut out = format!("{:x}\r\n", data.len()).into_bytes();
    out.extend_from_slice(data);
    out.extend_from_slice(b"\r\n");
    w.write_all(&out)?;
    w.flush()
}

/// Terminates a chunked response.
///
/// # Errors
/// Propagates I/O errors from the underlying stream.
pub fn finish_chunked<W: Write>(w: &mut W) -> io::Result<()> {
    w.write_all(b"0\r\n\r\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_a_post_with_body_and_query() {
        let raw =
            b"POST /sweeps?follow=1&x=2 HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut Cursor::new(&raw[..])).expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sweeps");
        assert_eq!(req.query, "follow=1&x=2");
        assert_eq!(req.body, b"hello");
        assert!(req.flag("follow"));
        assert!(!req.flag("x"));
    }

    #[test]
    fn get_without_length_has_empty_body() {
        let raw = b"GET /healthz HTTP/1.0\r\n\r\n";
        let req = read_request(&mut Cursor::new(&raw[..])).expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_oversize() {
        assert!(read_request(&mut Cursor::new(&b"\r\n\r\n"[..])).is_err());
        assert!(read_request(&mut Cursor::new(&b"GET /x SPDY/9\r\n\r\n"[..])).is_err());
        let huge = format!(
            "POST /s HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(read_request(&mut Cursor::new(huge.as_bytes())).is_err());
        let short = b"POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_request(&mut Cursor::new(&short[..])).is_err());
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::error(429, "try \"later\"")).expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"try \\\"later\\\"\"}"));
        let len: usize = text
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|v| v.trim().parse().ok())
            .expect("has length");
        assert_eq!(len, "{\"error\":\"try \\\"later\\\"\"}".len());
    }

    #[test]
    fn chunked_stream_roundtrips() {
        let mut out = Vec::new();
        write_chunked_head(&mut out, "application/x-ndjson").expect("head");
        write_chunk(&mut out, b"{\"a\":1}\n").expect("chunk");
        write_chunk(&mut out, b"").expect("empty chunk is a no-op");
        write_chunk(&mut out, b"{\"b\":2}\n").expect("chunk");
        finish_chunked(&mut out).expect("finish");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.contains("Transfer-Encoding: chunked"));
        let body = text.split_once("\r\n\r\n").expect("body").1;
        assert_eq!(body, "8\r\n{\"a\":1}\n\r\n8\r\n{\"b\":2}\n\r\n0\r\n\r\n");
    }
}
