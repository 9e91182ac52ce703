//! Property tests for the one HTTP layer: every body the response writers
//! frame reads back byte-identical through the shared reader, and no byte
//! string — arbitrary, assembled from HTTP fragments, or a truncated valid
//! message — makes `read_request` or `read_response` panic.

use std::io::Cursor;

use proptest::collection::vec;
use proptest::prelude::*;
use proptest::sample::select;
use wec_serve::http::{format_request, read_request, read_response, write_response, ChunkedWriter};

fn chunked_response(chunks: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = ChunkedWriter::begin(&mut out, 200, "OK", "application/jsonl").unwrap();
    for c in chunks {
        w.chunk(c).unwrap();
    }
    w.finish().unwrap();
    out
}

fn fixed_response(status: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let extra = [("X-Extra", "1".to_string())];
    write_response(&mut out, status, "Reason", "text/plain", body, &extra).unwrap();
    out
}

/// Byte strings built from the pieces the readers branch on, so random
/// input reaches past the first line.
fn wire_soup() -> impl Strategy<Value = Vec<u8>> {
    let fragments: Vec<&'static [u8]> = vec![
        b"GET / HTTP/1.1\r\n",
        b"HTTP/1.1 200 OK\r\n",
        b"Content-Length: 3\r\n",
        b"Content-Length: 99999999999\r\n",
        b"Transfer-Encoding: chunked\r\n",
        b"X-H: v\r\n",
        b"\r\n",
        b"3\r\nabc\r\n",
        b"ffffffffffffffff\r\n",
        b"0\r\n\r\n",
        b":",
        b"\n",
    ];
    let piece = prop_oneof![
        select(fragments).prop_map(|f| f.to_vec()),
        any::<u8>().prop_map(|b| vec![b]),
    ];
    vec(piece, 0..48).prop_map(|pieces| pieces.concat())
}

proptest! {
    #[test]
    fn fixed_length_bodies_round_trip(status in 100u16..600, body in vec(any::<u8>(), 0..2048)) {
        let r = read_response(&mut Cursor::new(fixed_response(status, &body)));
        let r = r.map_err(|e| e.to_string())?;
        prop_assert_eq!(r.status, status);
        prop_assert_eq!(r.header("X-Extra"), Some("1"));
        prop_assert_eq!(r.body, body);
    }

    #[test]
    fn chunked_bodies_round_trip(chunks in vec(vec(any::<u8>(), 0..300), 0..12)) {
        let r = read_response(&mut Cursor::new(chunked_response(&chunks)));
        let r = r.map_err(|e| e.to_string())?;
        prop_assert_eq!(r.status, 200);
        prop_assert_eq!(r.body, chunks.concat());
    }

    #[test]
    fn arbitrary_bytes_are_ok_or_err_never_a_panic(
        raw in vec(any::<u8>(), 0..512),
        soup in wire_soup(),
    ) {
        for bytes in [&raw, &soup] {
            let _ = read_request(&mut Cursor::new(&bytes[..]));
            let _ = read_response(&mut Cursor::new(&bytes[..]));
        }
    }

    #[test]
    fn truncated_messages_are_errors(
        body in vec(any::<u8>(), 1..512),
        chunks in vec(vec(any::<u8>(), 1..64), 0..6),
        cut in any::<usize>(),
    ) {
        let request = format_request("POST", "/jobs", "prop", Some(&body));
        let prefix = &request[..cut % request.len()];
        prop_assert!(read_request(&mut Cursor::new(prefix)).is_err());
        for response in [fixed_response(200, &body), chunked_response(&chunks)] {
            let prefix = &response[..cut % response.len()];
            prop_assert!(read_response(&mut Cursor::new(prefix)).is_err());
        }
    }
}
