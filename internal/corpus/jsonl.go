package corpus

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// JSONL export of citations: one JSON object per line, the interchange
// format for inspecting the synthetic corpus (csbuild -dump writes it).

// WriteJSONL writes citations one JSON object per line.
func WriteJSONL(w io.Writer, docs []Citation) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range docs {
		if err := enc.Encode(&docs[i]); err != nil {
			return fmt.Errorf("corpus: doc %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// SaveJSONL writes the corpus's citations to path.
func (c *Corpus) SaveJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSONL(f, c.Docs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
