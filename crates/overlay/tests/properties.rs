//! Property-based tests for the identifier space: identifier/label
//! algebra and hash behaviour.

use proptest::prelude::*;

use pollux_overlay::{Label, NodeId};

fn arb_id() -> impl Strategy<Value = NodeId> {
    proptest::collection::vec(any::<u8>(), 32).prop_map(|v| {
        let mut bytes = [0u8; 32];
        bytes.copy_from_slice(&v);
        NodeId::from_bytes(bytes)
    })
}

fn arb_label() -> impl Strategy<Value = Label> {
    proptest::collection::vec(any::<bool>(), 0..20).prop_map(Label::from_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn common_prefix_is_symmetric_and_bounded(a in arb_id(), b in arb_id()) {
        let ab = a.common_prefix_len(&b);
        prop_assert_eq!(ab, b.common_prefix_len(&a));
        prop_assert!(ab <= 256);
        if ab < 256 {
            prop_assert_ne!(a.bit(ab), b.bit(ab));
            for i in 0..ab {
                prop_assert_eq!(a.bit(i), b.bit(i));
            }
        }
    }

    #[test]
    fn xor_distance_identity_and_symmetry(a in arb_id(), b in arb_id()) {
        prop_assert_eq!(a.xor_distance(&a), NodeId::from_bytes([0u8; 32]));
        prop_assert_eq!(a.xor_distance(&b), b.xor_distance(&a));
    }

    #[test]
    fn incarnation_derivation_is_injective_in_practice(a in arb_id(), k1 in 0u64..1000, k2 in 0u64..1000) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(a.derive_incarnation(k1), a.derive_incarnation(k2));
    }

    #[test]
    fn label_parse_display_roundtrip(label in arb_label()) {
        if label.is_empty() {
            prop_assert_eq!(label.to_string(), "ε");
        } else {
            let s = label.to_string();
            prop_assert_eq!(Label::parse(&s).unwrap(), label);
        }
    }

    #[test]
    fn label_tree_algebra(label in arb_label()) {
        let (zero, one) = label.children();
        prop_assert_eq!(zero.parent().unwrap(), label.clone());
        prop_assert_eq!(one.parent().unwrap(), label.clone());
        prop_assert_eq!(zero.sibling().unwrap(), one.clone());
        prop_assert_eq!(one.sibling().unwrap(), zero.clone());
        prop_assert!(label.is_prefix_of_label(&zero));
        prop_assert!(label.is_prefix_of_label(&one));
        prop_assert!(!zero.is_prefix_of_label(&one));
    }

    #[test]
    fn label_prefix_of_id_consistency(id in arb_id(), depth in 0usize..40) {
        let label = Label::prefix_of_id(&id, depth);
        prop_assert_eq!(label.len(), depth);
        prop_assert!(label.is_prefix_of(&id));
        prop_assert_eq!(label.common_prefix_with_id(&id), depth);
        if depth > 0 {
            let flipped = label.flip_bit(depth - 1);
            prop_assert!(!flipped.is_prefix_of(&id));
        }
    }

    #[test]
    fn exactly_one_child_prefixes_an_id(id in arb_id(), depth in 0usize..30) {
        let label = Label::prefix_of_id(&id, depth);
        let (zero, one) = label.children();
        prop_assert!(zero.is_prefix_of(&id) ^ one.is_prefix_of(&id));
    }

    #[test]
    fn sha256_is_deterministic_and_length_sensitive(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        use pollux_overlay::hash::sha256;
        prop_assert_eq!(sha256(&data), sha256(&data));
        let mut extended = data.clone();
        extended.push(0);
        prop_assert_ne!(sha256(&data), sha256(&extended));
    }
}
