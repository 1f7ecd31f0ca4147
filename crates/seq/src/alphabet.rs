//! Character-state alphabets.
//!
//! A sequence character is stored as a `u8` *code*. Codes `0..states` are
//! concrete states; higher codes are ambiguity codes (including gaps and
//! unknowns), each of which expands to a bitmask over the concrete states.
//! Likelihood kernels turn a code into a 0/1 tip vector via
//! [`Alphabet::state_mask`], so ambiguity handling costs nothing extra in
//! the inner loop.

use crate::error::SeqError;

/// Which biological alphabet a dataset uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlphabetKind {
    /// Nucleotides: A, C, G, T(/U) plus IUPAC ambiguity codes.
    Dna,
    /// Amino acids: the 20 standard residues plus B/Z/J/X ambiguities.
    Protein,
}

impl AlphabetKind {
    /// The matching alphabet instance.
    pub fn alphabet(self) -> &'static Alphabet {
        match self {
            AlphabetKind::Dna => dna(),
            AlphabetKind::Protein => protein(),
        }
    }

    /// Number of concrete states (4 or 20).
    pub fn states(self) -> usize {
        match self {
            AlphabetKind::Dna => 4,
            AlphabetKind::Protein => 20,
        }
    }
}

impl std::fmt::Display for AlphabetKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlphabetKind::Dna => write!(f, "NT"),
            AlphabetKind::Protein => write!(f, "AA"),
        }
    }
}

/// A character-state alphabet with ambiguity support.
pub struct Alphabet {
    kind: AlphabetKind,
    states: usize,
    /// Printable character per code (concrete states first).
    chars: Vec<u8>,
    /// Bitmask over concrete states per code.
    masks: Vec<u32>,
    /// ASCII byte (uppercased) → code, 255 = invalid.
    decode: [u8; 256],
}

impl Alphabet {
    fn build(kind: AlphabetKind, states: usize, table: &[(u8, u32)]) -> Alphabet {
        let mut chars = Vec::with_capacity(table.len());
        let mut masks = Vec::with_capacity(table.len());
        let mut decode = [255u8; 256];
        for (code, &(ch, mask)) in table.iter().enumerate() {
            chars.push(ch);
            masks.push(mask);
            decode[ch.to_ascii_uppercase() as usize] = code as u8;
            decode[ch.to_ascii_lowercase() as usize] = code as u8;
        }
        Alphabet { kind, states, chars, masks, decode }
    }

    /// Which biological alphabet this is.
    #[inline]
    pub fn kind(&self) -> AlphabetKind {
        self.kind
    }

    /// Number of concrete states.
    #[inline]
    pub fn states(&self) -> usize {
        self.states
    }

    /// Total number of codes (concrete + ambiguity).
    #[inline]
    pub fn n_codes(&self) -> usize {
        self.chars.len()
    }

    /// The code of the fully-ambiguous "unknown" character (N or X); also
    /// used for gaps, which carry no signal in the likelihood model.
    #[inline]
    pub fn unknown_code(&self) -> u8 {
        // By construction the fully-ambiguous code is the last entry whose
        // mask covers all states; we place it right after the concrete
        // states for both alphabets.
        self.states as u8
    }

    /// Encodes one ASCII character, or `None` if it is not in the alphabet.
    #[inline]
    pub fn encode(&self, ch: u8) -> Option<u8> {
        let code = self.decode[ch as usize];
        (code != 255).then_some(code)
    }

    /// Encodes a full string, mapping gaps (`-`, `.`, `?`) to the unknown
    /// code and rejecting anything else that is not in the alphabet.
    pub fn encode_str(&self, text: &str) -> Result<Vec<u8>, SeqError> {
        let mut out = Vec::with_capacity(text.len());
        for (i, &b) in text.as_bytes().iter().enumerate() {
            if b.is_ascii_whitespace() {
                continue;
            }
            if matches!(b, b'-' | b'.' | b'?') {
                out.push(self.unknown_code());
                continue;
            }
            match self.encode(b) {
                Some(code) => out.push(code),
                None => return Err(SeqError::BadCharacter { position: i, character: b as char }),
            }
        }
        Ok(out)
    }

    /// The printable character for a code.
    #[inline]
    pub fn decode_char(&self, code: u8) -> char {
        self.chars[code as usize] as char
    }

    /// Decodes a full code sequence back to text.
    pub fn decode_str(&self, codes: &[u8]) -> String {
        codes.iter().map(|&c| self.decode_char(c)).collect()
    }

    /// Bitmask over concrete states for a code: bit `i` set means state `i`
    /// is compatible with the observed character.
    #[inline]
    pub fn state_mask(&self, code: u8) -> u32 {
        self.masks[code as usize]
    }

    /// Every code's [`state_mask`](Alphabet::state_mask), indexed by code.
    #[inline]
    pub fn state_masks(&self) -> &[u32] {
        &self.masks
    }

    /// True if the code is a concrete (unambiguous) state.
    #[inline]
    pub fn is_concrete(&self, code: u8) -> bool {
        (code as usize) < self.states
    }

    /// Writes the 0/1 tip vector for `code` into `out` (`out.len() ==
    /// states`).
    pub fn tip_vector(&self, code: u8, out: &mut [f64]) {
        debug_assert_eq!(out.len(), self.states);
        let mask = self.state_mask(code);
        for (i, v) in out.iter_mut().enumerate() {
            *v = ((mask >> i) & 1) as f64;
        }
    }
}

fn dna_table() -> Vec<(u8, u32)> {
    const A: u32 = 1 << 0;
    const C: u32 = 1 << 1;
    const G: u32 = 1 << 2;
    const T: u32 = 1 << 3;
    vec![
        (b'A', A),
        (b'C', C),
        (b'G', G),
        (b'T', T),
        // Ambiguities; `N` (all states) first so `unknown_code == 4`.
        (b'N', A | C | G | T),
        (b'U', T),
        (b'R', A | G),
        (b'Y', C | T),
        (b'S', C | G),
        (b'W', A | T),
        (b'K', G | T),
        (b'M', A | C),
        (b'B', C | G | T),
        (b'D', A | G | T),
        (b'H', A | C | T),
        (b'V', A | C | G),
    ]
}

fn protein_table() -> Vec<(u8, u32)> {
    // Canonical residue order used throughout this workspace:
    // A R N D C Q E G H I L K M F P S T W Y V
    let order = b"ARNDCQEGHILKMFPSTWYV";
    let mut table: Vec<(u8, u32)> =
        order.iter().enumerate().map(|(i, &ch)| (ch, 1u32 << i)).collect();
    let idx = |ch: u8| order.iter().position(|&c| c == ch).unwrap();
    let all: u32 = (1 << 20) - 1;
    table.push((b'X', all)); // unknown_code == 20
    table.push((b'B', (1 << idx(b'N')) | (1 << idx(b'D'))));
    table.push((b'Z', (1 << idx(b'Q')) | (1 << idx(b'E'))));
    table.push((b'J', (1 << idx(b'I')) | (1 << idx(b'L'))));
    table
}

/// The shared nucleotide alphabet.
pub fn dna() -> &'static Alphabet {
    use std::sync::OnceLock;
    static DNA: OnceLock<Alphabet> = OnceLock::new();
    DNA.get_or_init(|| Alphabet::build(AlphabetKind::Dna, 4, &dna_table()))
}

/// The shared amino-acid alphabet.
pub fn protein() -> &'static Alphabet {
    use std::sync::OnceLock;
    static AA: OnceLock<Alphabet> = OnceLock::new();
    AA.get_or_init(|| Alphabet::build(AlphabetKind::Protein, 20, &protein_table()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dna_concrete_round_trip() {
        let a = dna();
        for (i, ch) in "ACGT".chars().enumerate() {
            let code = a.encode(ch as u8).unwrap();
            assert_eq!(code, i as u8);
            assert!(a.is_concrete(code));
            assert_eq!(a.decode_char(code), ch);
            assert_eq!(a.state_mask(code), 1 << i);
        }
    }

    #[test]
    fn dna_ambiguity_masks() {
        let a = dna();
        let n = a.encode(b'N').unwrap();
        assert_eq!(a.state_mask(n), 0b1111);
        assert_eq!(n, a.unknown_code());
        let r = a.encode(b'R').unwrap();
        assert_eq!(a.state_mask(r), 0b0101); // A|G
        let u = a.encode(b'U').unwrap();
        assert_eq!(a.state_mask(u), 0b1000); // T
    }

    #[test]
    fn dna_lowercase_and_gaps() {
        let a = dna();
        let codes = a.encode_str("acgt-N.?u").unwrap();
        assert_eq!(codes[0], 0);
        assert_eq!(codes[3], 3);
        assert_eq!(codes[4], a.unknown_code());
        assert_eq!(codes[5], a.unknown_code());
        assert_eq!(codes[6], a.unknown_code());
        assert_eq!(codes[7], a.unknown_code());
        assert_eq!(a.state_mask(codes[8]), 0b1000);
    }

    #[test]
    fn dna_rejects_junk() {
        let err = dna().encode_str("ACGTQ").unwrap_err();
        assert!(matches!(err, SeqError::BadCharacter { character: 'Q', .. }));
    }

    #[test]
    fn protein_round_trip() {
        let a = protein();
        assert_eq!(a.states(), 20);
        let text = "ARNDCQEGHILKMFPSTWYV";
        let codes = a.encode_str(text).unwrap();
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(c as usize, i);
        }
        assert_eq!(a.decode_str(&codes), text);
    }

    #[test]
    fn protein_ambiguities() {
        let a = protein();
        let x = a.encode(b'X').unwrap();
        assert_eq!(x, a.unknown_code());
        assert_eq!(a.state_mask(x).count_ones(), 20);
        let b = a.encode(b'B').unwrap();
        assert_eq!(a.state_mask(b).count_ones(), 2);
        let z = a.encode(b'Z').unwrap();
        assert_eq!(a.state_mask(z).count_ones(), 2);
    }

    #[test]
    fn tip_vectors() {
        let a = dna();
        let mut v = [0.0; 4];
        a.tip_vector(2, &mut v); // G
        assert_eq!(v, [0.0, 0.0, 1.0, 0.0]);
        a.tip_vector(a.encode(b'Y').unwrap(), &mut v); // C|T
        assert_eq!(v, [0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn whitespace_skipped() {
        let codes = dna().encode_str("AC GT\n").unwrap();
        assert_eq!(codes.len(), 4);
    }
}
