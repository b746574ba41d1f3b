"""FedOMD round benchmark (see README.md)."""
