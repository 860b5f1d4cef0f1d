//! Fuzz-style robustness tests: arbitrary inputs must produce errors, not
//! panics, at every parsing/decoding boundary.

use smadb::sma::parse::parse_define_sma;
use smadb::storage::{SlottedPage, PAGE_SIZE};
use smadb::types::{row, Column, DataType, Date, Decimal, Schema, StdRng};

fn schema() -> Schema {
    Schema::new(vec![
        Column::new("L_SHIPDATE", DataType::Date),
        Column::new("L_DISCOUNT", DataType::Decimal),
        Column::new("L_COMMENT", DataType::Str),
    ])
}

/// A random string mixing SQL-ish tokens, punctuation, and oddball chars.
fn random_text(rng: &mut StdRng, max_len: usize) -> String {
    const CHARS: &[char] = &[
        'a', 'z', 'A', 'Z', '0', '9', ' ', '\t', '\n', '(', ')', '*', ',', '.', ';', '\'', '"',
        '-', '+', '/', '\\', '_', '%', 'é', '☃', '\0',
    ];
    let n = rng.random_range(0..=max_len);
    (0..n)
        .map(|_| CHARS[rng.random_range(0..CHARS.len())])
        .collect()
}

/// The `define sma` parser never panics on arbitrary input.
#[test]
fn parser_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0001);
    let s = schema();
    for _ in 0..256 {
        let input = random_text(&mut rng, 200);
        let _ = parse_define_sma(&input, &s);
    }
}

/// The parser never panics on near-miss SQL either.
#[test]
fn parser_never_panics_on_sqlish() {
    const AGGS: &[&str] = &["min", "max", "sum", "count", "avg", "median"];
    const ARGS: &[&str] = &["*", "L_SHIPDATE", "L_DISCOUNT", "NOPE", "1 + 2", "(("];
    const TAILS: &[&str] = &[
        "",
        " group by L_SHIPDATE",
        " group by",
        " order by X",
        " , Y",
    ];
    let mut rng = StdRng::seed_from_u64(0xF022_0002);
    let s = schema();
    for _ in 0..256 {
        let name: String = (0..rng.random_range(1..=8usize))
            .map(|_| (b'a' + rng.random_range(0..26u8)) as char)
            .collect();
        let agg = AGGS[rng.random_range(0..AGGS.len())];
        let arg = ARGS[rng.random_range(0..ARGS.len())];
        let tail = TAILS[rng.random_range(0..TAILS.len())];
        let stmt = format!("define sma {name} select {agg}({arg}) from LINEITEM{tail}");
        let _ = parse_define_sma(&stmt, &s);
    }
}

/// Tuple decoding never panics on arbitrary bytes.
#[test]
fn row_decode_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0003);
    let s = schema();
    for _ in 0..256 {
        let n = rng.random_range(0..200usize);
        let bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u8)).collect();
        let _ = row::decode(&s, &bytes);
    }
}

/// Page validation never panics on arbitrary images.
#[test]
fn page_from_bytes_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0004);
    for _ in 0..256 {
        let mut image = vec![0u8; PAGE_SIZE];
        for b in image.iter_mut() {
            *b = rng.random_range(0..=255u8);
        }
        let corrupt_at = rng.random_range(0..64usize);
        image[corrupt_at.min(PAGE_SIZE - 1)] = rng.random_range(0..=255u8);
        if let Ok(page) = SlottedPage::from_bytes(&image) {
            // A page that validates must be safely iterable.
            for (_, img) in page.iter() {
                let _ = img.len();
            }
        }
    }
}

/// SMA deserialization never panics on random bytes: bare, behind the
/// `SMA2` magic, or behind a whole valid header (length and checksum
/// match, so the structural payload decoder sees the noise).
#[test]
fn sma_load_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xF022_0005);
    for case in 0..256 {
        let n = rng.random_range(0..PAGE_SIZE);
        let noise: Vec<u8> = (0..n).map(|_| rng.random_range(0..=255u8)).collect();
        let mut stream = Vec::with_capacity(n + 12);
        match case % 3 {
            0 => {}
            1 => stream.extend_from_slice(b"SMA2"),
            _ => {
                stream.extend_from_slice(b"SMA2");
                stream.extend_from_slice(&(n as u32).to_le_bytes());
                stream.extend_from_slice(&smadb::storage::crc32(&noise).to_le_bytes());
            }
        }
        stream.extend_from_slice(&noise);
        let _ = smadb::sma::decode_sma_stream(&stream);
    }
}

#[test]
fn decode_survives_hostile_string_lengths() {
    // A crafted image whose string length prefix points past the buffer.
    let s = schema();
    let t = vec![
        smadb::types::Value::Date(Date::parse("1997-01-01").unwrap()),
        smadb::types::Value::Decimal(Decimal::ZERO),
        smadb::types::Value::Str("hi".into()),
    ];
    let mut buf = Vec::new();
    row::encode(&s, &t, &mut buf).unwrap();
    // Inflate the string length field (bitmap 1 byte + date 4 + decimal 8 = offset 13).
    buf[13] = 0xFF;
    buf[14] = 0xFF;
    assert!(row::decode(&s, &buf).is_err());
}
