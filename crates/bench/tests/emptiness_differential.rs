//! The on-the-fly emptiness search against the materialised route it
//! replaced (normalise the domain from its root, clean, and the root is
//! inhabited iff it keeps a rule), on every pair of `fig6_ar --taggers
//! 30`'s configuration: seed 2014, default tagger sizes.

use fast_automata::{clean, normalize_rooted, witness};
use fast_bench::taggers::{double_tag_lang, generate_taggers, no_tags_lang, world_alg, world_type};
use fast_core::{compose, is_empty_transducer, restrict, restrict_out};

#[test]
fn tagger_pair_domains_agree_with_the_normalized_oracle() {
    let ty = world_type();
    let alg = world_alg(&ty);
    let no_tags = no_tags_lang(&ty, &alg);
    let double = double_tag_lang(&ty, &alg);
    let taggers = generate_taggers(&ty, &alg, 30, 2014);
    let (mut pairs, mut conflicts) = (0, 0);
    for (i, t1) in taggers.iter().enumerate() {
        for t2 in &taggers[i + 1..] {
            let p = compose(t1, t2).expect("fits budget").sttr;
            let p = restrict(&p, &no_tags).expect("fits budget");
            let p = restrict_out(&p, &double).expect("fits budget");
            let dom = p.domain();
            let (norm, ids) =
                normalize_rooted(&dom, vec![[dom.initial()].into()]).expect("fits budget");
            let oracle_empty = clean(&norm).rules(ids[0]).is_empty();
            let empty = is_empty_transducer(&p).expect("fits budget");
            assert_eq!(empty, oracle_empty, "pair {pairs}");
            if !empty {
                let w = witness(&dom).expect("fits budget").expect("a member");
                assert!(dom.accepts(&w), "pair {pairs}");
                conflicts += 1;
            }
            pairs += 1;
        }
    }
    assert_eq!((pairs, conflicts), (435, 40));
}
