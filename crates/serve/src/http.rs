//! Hand-rolled HTTP/1.1 framing.
//!
//! The workspace carries no HTTP library, so the daemon speaks the small
//! subset it needs directly: one request per connection (`Connection:
//! close`), `Content-Length` bodies on the way in, fixed-length or chunked
//! transfer encoding on the way out.  The parser enforces hard limits on
//! every dimension of a request and returns an error — never panics — on
//! malformed, oversized or truncated input; the server answers every such
//! error with a `400` and stays up.

use std::io::{self, BufRead, Write};

use wec_telemetry::json::escape_into;

/// Longest accepted request line (method + path + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted single header line.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Most headers accepted on one request.
pub const MAX_HEADERS: usize = 100;
/// Largest accepted request body.
pub const MAX_BODY: usize = 1 << 20;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, or a client-blamed error.
    pub fn body_utf8(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum ParseError {
    /// The client closed the connection before sending anything — not an
    /// error, just the end of the connection.
    Closed,
    /// Transport failure (timeout, reset) — nothing useful to answer.
    Io(io::Error),
    /// Malformed, oversized or truncated request — answered with `400`.
    Bad(String),
}

impl ParseError {
    /// The message to put in a `400` response, if this error deserves one.
    pub fn client_message(&self) -> Option<&str> {
        match self {
            ParseError::Bad(msg) => Some(msg),
            _ => None,
        }
    }
}

/// Read one `\n`-terminated line of at most `max` bytes (terminator
/// excluded), stripping the `\r\n` / `\n`.  `Ok(None)` on immediate EOF.
fn read_line<R: BufRead>(r: &mut R, max: usize, what: &str) -> Result<Option<String>, ParseError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(ParseError::Bad(format!("truncated {what}")));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let s = String::from_utf8(line)
                        .map_err(|_| ParseError::Bad(format!("{what} is not UTF-8")))?;
                    return Ok(Some(s));
                }
                if line.len() >= max {
                    return Err(ParseError::Bad(format!("{what} exceeds {max} bytes")));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
}

/// Parse one request from the stream, honouring every `MAX_*` limit.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ParseError> {
    let line = match read_line(r, MAX_REQUEST_LINE, "request line")? {
        Some(l) => l,
        None => return Err(ParseError::Closed),
    };
    let mut parts = line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) => (m, p, v),
        _ => return Err(ParseError::Bad(format!("malformed request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::Bad(format!("unsupported version {version:?}")));
    }
    if !path.starts_with('/') {
        return Err(ParseError::Bad(format!("malformed request path {path:?}")));
    }
    let (method, path) = (method.to_string(), path.to_string());

    let mut headers = Vec::new();
    loop {
        let line = match read_line(r, MAX_HEADER_LINE, "header line")? {
            Some(l) => l,
            None => return Err(ParseError::Bad("truncated headers".to_string())),
        };
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::Bad(format!("more than {MAX_HEADERS} headers")));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Bad(format!("header without colon {line:?}")));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let req = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if req.header("Transfer-Encoding").is_some() {
        return Err(ParseError::Bad(
            "chunked request bodies are not supported".to_string(),
        ));
    }
    let len = match req.header("Content-Length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Bad(format!("bad Content-Length {v:?}")))?,
    };
    if len > MAX_BODY {
        return Err(ParseError::Bad(format!(
            "body of {len} bytes exceeds the {MAX_BODY}-byte limit"
        )));
    }
    let mut body = vec![0u8; len];
    if len > 0 {
        if let Err(e) = r.read_exact(&mut body) {
            return match e.kind() {
                io::ErrorKind::UnexpectedEof => {
                    Err(ParseError::Bad("truncated request body".to_string()))
                }
                _ => Err(ParseError::Io(e)),
            };
        }
    }
    Ok(Request { body, ..req })
}

/// Write a complete fixed-length response (`Connection: close`).
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    write!(w, "HTTP/1.1 {status} {reason}\r\n")?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    write!(w, "Content-Length: {}\r\n", body.len())?;
    w.write_all(b"Connection: close\r\n")?;
    for (name, value) in extra_headers {
        write!(w, "{name}: {value}\r\n")?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)?;
    w.flush()
}

/// A JSON response.  Returns the status written, which handlers pass back
/// for the request metrics and the access log.
pub fn reply_json<W: Write>(w: &mut W, status: u16, reason: &str, body: &str) -> io::Result<u16> {
    write_response(w, status, reason, "application/json", body.as_bytes(), &[])?;
    Ok(status)
}

/// The `HEAD` twin of a JSON `GET`: same status and `Content-Length`, no
/// body bytes.
pub fn reply_head<W: Write>(w: &mut W, body: &str) -> io::Result<u16> {
    write_head_only(w, 200, "OK", "application/json", body.len())?;
    Ok(200)
}

/// A `405` whose `Allow` header lists `allow`.
pub fn method_not_allowed<W: Write>(w: &mut W, allow: &str) -> io::Result<u16> {
    write_response(
        w,
        405,
        "Method Not Allowed",
        "application/json",
        error_json("method not allowed").as_bytes(),
        &[("Allow", allow.to_string())],
    )?;
    Ok(405)
}

/// The `{"error": …}` body of every error answer.
pub fn error_json(msg: &str) -> String {
    let mut out = String::from("{\"error\":");
    escape_into(&mut out, msg);
    out.push('}');
    out
}

/// Write the response a `HEAD` request gets: the exact status line and
/// headers of the corresponding `GET` — including the `Content-Length` the
/// body *would* have — with no body bytes (RFC 9110 §9.3.2).
pub fn write_head_only<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body_len: usize,
) -> io::Result<()> {
    write!(w, "HTTP/1.1 {status} {reason}\r\n")?;
    write!(w, "Content-Type: {content_type}\r\n")?;
    write!(w, "Content-Length: {body_len}\r\n")?;
    w.write_all(b"Connection: close\r\n\r\n")?;
    w.flush()
}

/// A pass-through writer that counts bytes, so the access log can record
/// each response's wire size without the handlers threading it back.
pub struct CountingWriter<W: Write> {
    w: W,
    written: u64,
}

impl<W: Write> CountingWriter<W> {
    pub fn new(w: W) -> CountingWriter<W> {
        CountingWriter { w, written: 0 }
    }

    pub fn bytes_written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.w.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.w.flush()
    }
}

/// A chunked-transfer response in progress (the `/jobs/<id>/events`
/// stream).  Each [`ChunkedWriter::chunk`] is flushed immediately so
/// clients see progress lines as they happen.
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Write the status line and headers, switching the response to
    /// chunked transfer encoding.
    pub fn begin(mut w: W, status: u16, reason: &str, content_type: &str) -> io::Result<Self> {
        write!(w, "HTTP/1.1 {status} {reason}\r\n")?;
        write!(w, "Content-Type: {content_type}\r\n")?;
        w.write_all(b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n")?;
        w.flush()?;
        Ok(ChunkedWriter { w })
    }

    /// Send one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.w, "{:x}\r\n", data.len())?;
        self.w.write_all(data)?;
        self.w.write_all(b"\r\n")?;
        self.w.flush()
    }

    /// Send the terminating zero-length chunk.
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Result<Request, ParseError> {
        read_request(&mut Cursor::new(text.as_bytes().to_vec()))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /jobs HTTP/1.1\r\nHost: x\r\ncontent-length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.header("Content-Length"), Some("4"), "case-insensitive");
        assert_eq!(req.body, b"abcd");
        assert_eq!(req.body_utf8().unwrap(), "abcd");
    }

    #[test]
    fn get_without_content_length_has_empty_body() {
        let req = parse("GET /stats HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn immediate_eof_is_a_clean_close() {
        assert!(matches!(parse(""), Err(ParseError::Closed)));
    }

    #[test]
    fn garbage_request_lines_are_client_errors() {
        for bad in [
            "NOT A VALID REQUEST LINE AT ALL\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x SPDY/3\r\n\r\n",
            "GET x HTTP/1.1\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert!(err.client_message().is_some(), "{bad:?}: {err:?}");
        }
    }

    #[test]
    fn oversized_request_line_is_rejected_not_buffered() {
        let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_REQUEST_LINE));
        let err = parse(&huge).unwrap_err();
        assert!(err.client_message().unwrap().contains("request line"));
    }

    #[test]
    fn header_limits_are_enforced() {
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("X-H{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(parse(&many).unwrap_err().client_message().is_some());

        let long = format!(
            "GET / HTTP/1.1\r\nX-H: {}\r\n\r\n",
            "v".repeat(MAX_HEADER_LINE)
        );
        assert!(parse(&long).unwrap_err().client_message().is_some());

        assert!(parse("GET / HTTP/1.1\r\nno colon here\r\n\r\n")
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("colon"));
    }

    #[test]
    fn body_errors_are_client_errors() {
        // Non-numeric length.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
            .unwrap_err()
            .client_message()
            .is_some());
        // Over the limit — rejected before any allocation.
        let big = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(parse(&big)
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("limit"));
        // Truncated: promises 10 bytes, delivers 3.
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("truncated"));
        // Truncated mid-headers.
        assert!(parse("POST / HTTP/1.1\r\nHost: x\r\n")
            .unwrap_err()
            .client_message()
            .unwrap()
            .contains("truncated"));
        // Chunked request bodies are out of scope.
        assert!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .client_message()
                .unwrap()
                .contains("chunked")
        );
    }

    #[test]
    fn response_writer_frames_correctly() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            503,
            "Service Unavailable",
            "application/json",
            b"{}",
            &[("Retry-After", "1".to_string())],
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    #[test]
    fn head_only_response_has_the_get_content_length_and_no_body() {
        let mut out = Vec::new();
        write_head_only(&mut out, 200, "OK", "application/json", 123).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 123\r\n"));
        assert!(
            text.ends_with("\r\n\r\n"),
            "no body after headers: {text:?}"
        );
    }

    #[test]
    fn counting_writer_tallies_every_byte() {
        let mut sink = Vec::new();
        let n = {
            let mut cw = CountingWriter::new(&mut sink);
            reply_json(&mut cw, 200, "OK", "{}").unwrap();
            cw.bytes_written()
        };
        assert_eq!(n as usize, sink.len());
        assert!(sink.ends_with(b"{}"));
    }

    #[test]
    fn chunked_writer_emits_the_wire_format() {
        let mut out = Vec::new();
        let mut cw = ChunkedWriter::begin(&mut out, 200, "OK", "application/jsonl").unwrap();
        cw.chunk(b"abc").unwrap();
        cw.chunk(b"").unwrap(); // skipped, not a terminator
        cw.chunk(&[b'x'; 16]).unwrap();
        cw.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        let body = text.split_once("\r\n\r\n").unwrap().1;
        assert_eq!(
            body,
            format!("3\r\nabc\r\n10\r\n{}\r\n0\r\n\r\n", "x".repeat(16))
        );
    }
}
