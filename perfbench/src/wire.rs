//! The wire encodings the benchmark sends to `seal-server` and the
//! one field it reads back.

use seal_core::{Query, RoiObject};
use seal_geom::Rect;
use seal_text::TokenSet;

fn region(r: &Rect) -> String {
    // `{}` prints the shortest string that parses back to the same
    // f64, so the server sees exactly the region the oracle uses.
    format!("{},{},{},{}", r.min().x, r.min().y, r.max().x, r.max().y)
}

fn tokens(t: &TokenSet) -> String {
    let ids: Vec<String> = t.iter().map(|t| t.0.to_string()).collect();
    ids.join(",")
}

/// The `GET /query` target for `q`.
pub fn query_target(q: &Query) -> String {
    format!(
        "/query?region={}&tokens={}&tau_r={}&tau_t={}",
        region(&q.region),
        tokens(&q.tokens),
        q.tau_spatial,
        q.tau_textual
    )
}

/// The `POST /push` body for `objects`: one `x0 y0 x1 y1 tok,tok` line
/// each.
pub fn push_body(objects: &[RoiObject]) -> Vec<u8> {
    let mut body = String::new();
    for o in objects {
        let r = &o.region;
        body.push_str(&format!(
            "{} {} {} {} {}\n",
            r.min().x,
            r.min().y,
            r.max().x,
            r.max().y,
            tokens(&o.tokens)
        ));
    }
    body.into_bytes()
}

/// The `answers` array of a `/query` response body, `None` when the
/// body is not the expected shape.
pub fn answers(body: &[u8]) -> Option<Vec<u32>> {
    let text = std::str::from_utf8(body).ok()?;
    let start = text.find("\"answers\":[")? + "\"answers\":[".len();
    let end = start + text[start..].find(']')?;
    let list = &text[start..end];
    if list.is_empty() {
        return Some(Vec::new());
    }
    list.split(',').map(|s| s.trim().parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seal_text::TokenId;

    #[test]
    fn targets_and_bodies_carry_exact_values() {
        let r = Rect::new(0.1, 2.0, 3.25, 1e-7 + 4.0).unwrap();
        let q = Query::with_token_ids(r, [TokenId(9), TokenId(2)], 0.5, 0.2).unwrap();
        assert_eq!(
            query_target(&q),
            "/query?region=0.1,2,3.25,4.0000001&tokens=2,9&tau_r=0.5&tau_t=0.2"
        );
        let o = RoiObject::new(r, TokenSet::from_ids([TokenId(4)]));
        assert_eq!(push_body(&[o]), b"0.1 2 3.25 4.0000001 4\n".to_vec());
    }

    #[test]
    fn answers_are_read_from_the_response() {
        let body = br#"{"answers":[1,5,22],"count":3,"candidates":9,"generation":0}"#;
        assert_eq!(answers(body), Some(vec![1, 5, 22]));
        assert_eq!(answers(br#"{"answers":[],"count":0}"#), Some(vec![]));
        assert_eq!(answers(b"{\"error\":\"busy\"}"), None);
        assert_eq!(answers(br#"{"answers":[1,x]}"#), None);
    }
}
