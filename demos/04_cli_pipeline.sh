#!/bin/sh
# Full pipeline through the command line interface: generate a corpus,
# train, embed with the selected checkpoint, cluster, and score. The
# final step re-runs stages to show outputs are byte-for-byte stable.
set -e

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"
echo "working in $workdir"

echo
echo "== 1. synthesize a labeled 4-topic corpus =="
sadcluster synth --out corpus.jsonl --topics 4 --docs-per-topic 15 --seed 5
wc -l corpus.jsonl

echo
echo "== 2. preprocess (passthrough profile) with stats =="
sadcluster preprocess --in corpus.jsonl --out clean.jsonl --profile none \
    --stats stats.json
cat stats.json

echo
echo "== 3. train with shuffle & divide =="
sadcluster train --corpus clean.jsonl --out-dir run --k 4 \
    --method sad --batch-size 16 --lr 5e-3 --epochs 5 --seed 0 \
    --max-len-train 64 --max-len-test 128
ls run

echo
echo "== 4. embed with the silhouette-selected checkpoint =="
sadcluster embed --corpus clean.jsonl --checkpoint run/best.ckpt \
    --vocab run/vocab.json --out embeddings.txt --max-len 128
head -1 embeddings.txt

echo
echo "== 5. cluster the embeddings =="
sadcluster cluster --embeddings embeddings.txt --k 4 --out assignments.jsonl
head -2 assignments.jsonl

echo
echo "== 6. score against the gold labels =="
sadcluster eval --assignments assignments.jsonl --corpus clean.jsonl \
    --embeddings embeddings.txt --out metrics.json

echo
echo "== 7. reruns are byte-identical =="
sadcluster synth --out corpus2.jsonl --topics 4 --docs-per-topic 15 --seed 5
cmp corpus.jsonl corpus2.jsonl && echo "synth: identical bytes"
sadcluster train --corpus clean.jsonl --out-dir run2 --k 4 \
    --method sad --batch-size 16 --lr 5e-3 --epochs 5 --seed 0 \
    --max-len-train 64 --max-len-test 128
cmp run/best.ckpt run2/best.ckpt && cmp run/final.ckpt run2/final.ckpt \
    && echo "train: identical bytes"
sadcluster embed --corpus clean.jsonl --checkpoint run/best.ckpt \
    --vocab run/vocab.json --out embeddings2.txt --max-len 128
cmp embeddings.txt embeddings2.txt && echo "embed: identical bytes"
