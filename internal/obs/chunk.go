package obs

import "iter"

// chunkLen is the length of every chunk of a trace's two logs: 31 entries
// and the link to the next chunk fill one size class exactly, 2 KiB of
// 64-byte spans and 1.5 KiB of 48-byte attributes.
const chunkLen = 31

// chunk is one fixed block of a log. It never moves once made, so a pointer
// to an entry stays valid while the log grows.
type chunk[T any] struct {
	items [chunkLen]T
	next  *chunk[T]
}

// chunkLog is an append-only log kept in chunks: it allocates one chunk
// every chunkLen entries and never copies an entry. Its owner serializes
// every call.
type chunkLog[T any] struct {
	head, tail *chunk[T]
	n          int
}

// add appends v and returns the entry it wrote.
func (l *chunkLog[T]) add(v T) *T {
	i := l.n % chunkLen
	if i == 0 {
		c := new(chunk[T])
		if l.tail == nil {
			l.head = c
		} else {
			l.tail.next = c
		}
		l.tail = c
	}
	l.n++
	l.tail.items[i] = v
	return &l.tail.items[i]
}

// all yields the log's entries in order, each with its index.
func (l *chunkLog[T]) all() iter.Seq2[int, *T] {
	return func(yield func(int, *T) bool) {
		i := 0
		for c := l.head; c != nil; c = c.next {
			for j := range min(chunkLen, l.n-i) {
				if !yield(i, &c.items[j]) {
					return
				}
				i++
			}
		}
	}
}
