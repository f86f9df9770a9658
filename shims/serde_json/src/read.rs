//! Recursive-descent JSON text parser.

use serde::{Error, Map, Number, Value};

pub fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters"));
    }
    Ok(value)
}

fn err(pos: usize, msg: &str) -> Error {
    Error::custom(format!("JSON error at byte {pos}: {msg}"))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), Error> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected {:?}", b as char)))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&b) => Err(err(*pos, &format!("unexpected character {:?}", b as char))),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected `{word}`")))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    expect(bytes, pos, b'{')?;
    let mut map = Map::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        map.insert(key, value);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(err(*pos, "expected `,` or `}`")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(err(*pos, "expected `,` or `]`")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| err(*pos, "bad \\u escape"))?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "bad \\u escape"))?;
                        // Surrogate pairs: combine a high surrogate with
                        // the following \uXXXX low surrogate.
                        let c = if (0xD800..0xDC00).contains(&cp) {
                            if bytes.get(*pos + 5..*pos + 7) != Some(b"\\u") {
                                return Err(err(*pos, "unpaired surrogate"));
                            }
                            let lo_hex = bytes
                                .get(*pos + 7..*pos + 11)
                                .ok_or_else(|| err(*pos, "truncated surrogate pair"))?;
                            let lo_hex = std::str::from_utf8(lo_hex)
                                .map_err(|_| err(*pos, "bad surrogate pair"))?;
                            let lo = u32::from_str_radix(lo_hex, 16)
                                .map_err(|_| err(*pos, "bad surrogate pair"))?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(err(*pos, "invalid low surrogate"));
                            }
                            *pos += 6;
                            let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(combined)
                                .ok_or_else(|| err(*pos, "invalid surrogate pair"))?
                        } else {
                            char::from_u32(cp).ok_or_else(|| err(*pos, "invalid code point"))?
                        };
                        out.push(c);
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "bad escape")),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return Err(err(*pos, "control character in string")),
            Some(_) => {
                // Copy the whole run of plain bytes up to the next quote,
                // backslash or control byte at once. Those stops are all
                // ASCII, so the run ends on a char boundary of the input.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "invalid UTF-8"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap();
    if is_float {
        let v: f64 = text.parse().map_err(|_| err(start, "bad number"))?;
        return Ok(Value::Number(Number::Float(v)));
    }
    if text.starts_with('-') {
        match text.parse::<i64>() {
            Ok(v) => Ok(Value::Number(Number::NegInt(v))),
            Err(_) => {
                let v: f64 = text.parse().map_err(|_| err(start, "bad number"))?;
                Ok(Value::Number(Number::Float(v)))
            }
        }
    } else {
        match text.parse::<u64>() {
            Ok(v) => Ok(Value::Number(Number::PosInt(v))),
            Err(_) => {
                let v: f64 = text.parse().map_err(|_| err(start, "bad number"))?;
                Ok(Value::Number(Number::Float(v)))
            }
        }
    }
}
